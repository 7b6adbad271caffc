import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz import DomainError, SparseSequence, format_sequence, parse_sequence


def test_empty_sequence_is_falsy_zero():
    x = SparseSequence()
    assert not x
    assert x.support_size == 0
    assert x.max_index == 0
    assert x.value_at(1) == 0.0
    assert x.to_dense(3).tolist() == [0.0, 0.0, 0.0]


def test_entry_validation():
    with pytest.raises(DomainError):
        SparseSequence(((0, 1.0),))
    with pytest.raises(DomainError):
        SparseSequence(((2, 1.0), (2, 3.0)))
    with pytest.raises(DomainError):
        SparseSequence(((3, 1.0), (2, 1.0)))
    with pytest.raises(DomainError):
        SparseSequence(((1, 0.0),))
    with pytest.raises(DomainError):
        SparseSequence(((1, math.inf),))
    with pytest.raises(DomainError):
        SparseSequence(((1.0, 1.0),))  # float index


def test_from_pairs_sorts_and_drops_zeros():
    x = SparseSequence.from_pairs([(5, 2.0), (1, -1.0), (3, 0.0)])
    assert x.entries == ((1, -1.0), (5, 2.0))
    with pytest.raises(DomainError):
        SparseSequence.from_pairs([(1, 1.0), (1, 2.0)])


def test_from_values_dense_prefix():
    x = SparseSequence.from_values([0.5, 0.0, -0.25])
    assert x.entries == ((1, 0.5), (3, -0.25))
    y = SparseSequence.from_values([1.0, 2.0], start=4)
    assert y.indices() == (4, 5)


def test_accessors():
    x = SparseSequence.from_pairs([(2, 0.3), (7, -0.1)])
    assert x.support_size == 2
    assert x.max_index == 7
    assert x.value_at(2) == 0.3
    assert x.value_at(3) == 0.0
    assert x.value_at(100) == 0.0
    assert x.indices() == (2, 7)
    assert x.values() == (0.3, -0.1)
    assert list(x) == [(2, 0.3), (7, -0.1)]


def test_scalar_algebra():
    x = SparseSequence.from_pairs([(1, 2.0), (3, -4.0)])
    assert (2.0 * x).values() == (4.0, -8.0)
    assert (x * 0.5).values() == (1.0, -2.0)
    assert (-x).values() == (-2.0, 4.0)
    assert x.scale(0.0) == SparseSequence()


def test_add_merges_supports():
    x = SparseSequence.from_pairs([(1, 1.0), (3, 2.0)])
    y = SparseSequence.from_pairs([(2, 5.0), (3, 1.0)])
    assert (x + y).entries == ((1, 1.0), (2, 5.0), (3, 3.0))
    assert (x - y).entries == ((1, 1.0), (2, -5.0), (3, 1.0))


def test_subtraction_drops_cancelled_entries():
    x = SparseSequence.from_pairs([(1, 1.0), (3, 2.0)])
    assert (x - x) == SparseSequence()
    y = SparseSequence.from_pairs([(3, 2.0)])
    assert (x - y).entries == ((1, 1.0),)


def test_to_dense_truncates_and_pads():
    x = SparseSequence.from_pairs([(2, 1.5)])
    assert x.to_dense().tolist() == [0.0, 1.5]
    assert x.to_dense(4).tolist() == [0.0, 1.5, 0.0, 0.0]
    assert x.to_dense(1).tolist() == [0.0]


def test_parse_sequence_literals():
    assert parse_sequence("") == SparseSequence()
    assert parse_sequence("   ") == SparseSequence()
    x = parse_sequence("3:0.5, 1:-2")
    assert x.entries == ((1, -2.0), (3, 0.5))
    with pytest.raises(DomainError):
        parse_sequence("1:2:3")
    with pytest.raises(DomainError):
        parse_sequence("a:1")
    with pytest.raises(DomainError):
        parse_sequence("1:1,1:2")


def test_format_sequence_round_trip_is_exact():
    x = SparseSequence.from_pairs([(1, 0.1), (4, -1.0 / 3.0), (9, 2.0 ** -40)])
    assert parse_sequence(format_sequence(x)) == x
    assert format_sequence(SparseSequence()) == ""


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=50),
            st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        max_size=8,
        unique_by=lambda p: p[0],
    )
)
@settings(max_examples=60, deadline=None)
def test_dense_round_trip(pairs):
    x = SparseSequence.from_pairs(pairs)
    dense = x.to_dense(50)
    assert SparseSequence.from_values(dense.tolist()) == x
    # arithmetic agrees with dense arithmetic
    y = SparseSequence.from_pairs([(1, 3.0), (50, -2.0)])
    np.testing.assert_array_equal((x + y).to_dense(50), dense + y.to_dense(50))


# ------------------------------------------------- canonical form, by reference
#
# The hand-written forms that merge, value_at and scale had before each went
# through from_pairs or a dict, kept as the reference for the bits.


def _reference_merge(x, y, sign):
    out = []
    a, b = x.entries, y.entries
    i = j = 0
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i][0] < b[j][0]):
            out.append(a[i])
            i += 1
        elif i >= len(a) or b[j][0] < a[i][0]:
            out.append((b[j][0], sign * b[j][1]))
            j += 1
        else:
            v = a[i][1] + sign * b[j][1]
            if v != 0.0:
                out.append((a[i][0], v))
            i += 1
            j += 1
    return SparseSequence(tuple(out))


def _reference_value_at(x, index):
    for idx, val in x.entries:
        if idx == index:
            return val
        if idx > index:
            break
    return 0.0


def _reference_scale(x, factor):
    if factor == 0.0:
        return SparseSequence()
    return SparseSequence(tuple((i, v * factor) for i, v in x.entries))


def _bits(outcome):
    """A sequence as (index, type, hex value) triples, or the class of the error that built none."""
    if isinstance(outcome, type):
        return outcome
    return [(i, type(v), v.hex()) for i, v in outcome.entries]


def _outcome(build, *args):
    try:
        return build(*args)
    except DomainError:
        return DomainError


# A small pool of values, so that entries cancel and repeat, with subnormals
# and values near the ends of the range, and arbitrary finite floats.
_VALUES = st.one_of(
    st.sampled_from([1.0, -1.0, 0.1, -0.1, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e300, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True).filter(lambda v: v != 0.0),
)
_SEQUENCES = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12), _VALUES), max_size=8, unique_by=lambda p: p[0]
).map(SparseSequence.from_pairs)
_FACTORS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e-300, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@given(_SEQUENCES, _SEQUENCES, st.booleans())
@settings(max_examples=150, deadline=None)
def test_add_and_subtract_equal_the_two_pointer_merge_bit_for_bit(x, y, cancel):
    if cancel:  # y takes x's entries, so that x - y cancels them
        y = SparseSequence.from_pairs({**dict(y.entries), **dict(x.entries)}.items())
    assert _bits(_outcome(lambda: x + y)) == _bits(_outcome(_reference_merge, x, y, 1.0))
    assert _bits(_outcome(lambda: x - y)) == _bits(_outcome(_reference_merge, x, y, -1.0))
    assert x - x == SparseSequence()


@given(_SEQUENCES, st.integers(min_value=-1, max_value=14))
@settings(max_examples=100, deadline=None)
def test_value_at_equals_the_linear_scan(x, index):
    got, want = x.value_at(index), _reference_value_at(x, index)
    assert (type(got), got.hex()) == (type(want), want.hex())


@given(_SEQUENCES, _FACTORS)
@settings(max_examples=150, deadline=None)
def test_scale_equals_the_reference_or_drops_an_underflowed_product(x, factor):
    products = [(i, v * factor) for i, v in x.entries]
    got, want = _outcome(x.scale, factor), _outcome(_reference_scale, x, factor)
    if want is DomainError and all(math.isfinite(p) for _, p in products):
        # The reference refuses a product that underflowed to 0; scale drops it.
        assert any(p == 0.0 for _, p in products)
        assert _bits(got) == [(i, float, p.hex()) for i, p in products if p != 0.0]
    else:
        assert _bits(got) == _bits(want)


def test_scale_drops_a_product_that_underflows():
    x = SparseSequence.from_pairs([(1, 1e-200), (2, 1.0)])
    assert x.scale(1e-150).entries == ((2, 1e-150),)
    assert (x * 5e-324).entries == ((2, 5e-324),)


@pytest.mark.parametrize("val", [0.0, -0.0, math.inf, -math.inf, math.nan, np.float64("nan"), np.float64(0.0)])
def test_entry_validation_names_the_bad_value(val):
    with pytest.raises(DomainError) as exc:
        SparseSequence(((1, 0.5), (3, val)))
    assert str(exc.value) == f"values must be nonzero and finite, got {val!r} at index 3"
