import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orlicz import (
    DomainError,
    SparseSequence,
    inverse_bump_objective,
    luxemburg_norm,
    make_power,
    modular,
    modular_objective,
    parse_family,
    parse_objective,
    shifted_ball_objective,
    squared_distance_objective,
)

M2 = make_power(2)


def test_modular_objective_values():
    f = modular_objective(M2, radius=2.0)
    x = SparseSequence.from_pairs([(1, 0.5)])
    assert f.eval(x) == modular(M2, x)
    assert f.coercive
    assert f.domain_radius == 2.0
    assert f.lower_bound == 0.0
    rows = np.array([[0.5, 0.0], [0.0, -1.0]])
    np.testing.assert_allclose(f.eval_dense(rows, (1, 2)), [0.25, 1.0])
    f.assert_proper()


def test_squared_distance_objective():
    z = SparseSequence.from_pairs([(1, 0.5), (2, -0.25)])
    f = squared_distance_objective(M2, z)
    assert f.eval(z) == 0.0
    assert f.eval(SparseSequence()) == pytest.approx(luxemburg_norm(M2, z) ** 2, rel=1e-9)
    assert f.domain_radius == pytest.approx(2.0 * luxemburg_norm(M2, z), rel=1e-9)
    assert z in f.probe_points
    rows = np.array([[0.5, -0.25], [0.0, 0.0]])
    got = f.eval_dense(rows, (1, 2))
    assert got[0] == pytest.approx(0.0, abs=1e-18)
    assert got[1] == pytest.approx(f.eval(SparseSequence()), rel=1e-9)
    with pytest.raises(DomainError):
        f.eval_dense(rows, (1, 3))  # grid misses coordinate 2 of z
    with pytest.raises(DomainError):
        squared_distance_objective(M2, SparseSequence())


def test_shifted_ball_objective_walls():
    f = shifted_ball_objective(M2, radius=1.0)
    assert f.eval(SparseSequence()) == 1.0
    on_sphere = SparseSequence.from_pairs([(1, 1.0)])
    assert f.eval(on_sphere) == pytest.approx(2.0, rel=1e-9)
    outside = SparseSequence.from_pairs([(1, 1.5)])
    assert f.eval(outside) == math.inf
    assert not f.coercive
    assert f.lower_bound == 1.0
    dense = f.eval_dense(np.array([[0.0], [1.5]]), (1,))
    assert dense[0] == 1.0
    assert dense[1] == math.inf


def test_inverse_bump_objective_profile():
    f = inverse_bump_objective(M2, radius=1.0)
    assert f.eval(SparseSequence()) == 1.0  # exp(2/1 - 2)
    mid = SparseSequence.from_pairs([(1, 0.5)])
    assert f.eval(mid) == pytest.approx(math.exp(2.0 / 0.75 - 2.0), rel=1e-9)
    assert f.eval(SparseSequence.from_pairs([(1, 1.0)])) == math.inf
    dense = f.eval_dense(np.array([[0.5], [2.0]]), (1,))
    assert dense[0] == pytest.approx(f.eval(mid), rel=1e-9)
    assert dense[1] == math.inf
    # blows up toward the boundary; saturates to +inf once out of float range
    assert f.eval(SparseSequence.from_pairs([(1, 0.99)])) > 1e40
    assert f.eval(SparseSequence.from_pairs([(1, 0.999)])) == math.inf


def test_parse_objective_forms():
    assert parse_objective(M2, "modular").domain_radius == 1.0
    assert parse_objective(M2, "modular:2.5").domain_radius == 2.5
    f = parse_objective(M2, "sqdist:1:0.5")
    assert f.eval(SparseSequence.from_pairs([(1, 0.5)])) == 0.0
    assert parse_objective(M2, "ball-quad:0.5").domain_radius == 0.5
    assert parse_objective(M2, "BUMP-INV").lower_bound == 1.0
    with pytest.raises(DomainError):
        parse_objective(M2, "himalaya")
    with pytest.raises(DomainError):
        parse_objective(M2, "sqdist:")  # zero target
    for text in ("ball-quad:-1", "bump-inv:0", "modular:nan"):
        with pytest.raises(DomainError):
            parse_objective(M2, text)


# Rows stop at 7 columns: from 8 on, numpy's row sum goes pairwise, so even
# the modular of a sequence may differ from the modular of its dense row in
# the last bits (see GridOracle.outer_sum).
row_values = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=-1.5, max_value=1.5)), min_size=1, max_size=7
)


@given(
    tag=st.sampled_from(("power:1", "power:1.5", "power:2", "power:3", "non-delta2")),
    name=st.sampled_from(("modular", "sqdist", "ball-quad", "bump-inv")),
    radius=st.sampled_from((0.5, 0.9, 1.0, 2.0)),
    values=row_values,
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_scalar_eval_is_the_dense_row(tag, name, radius, values, data):
    """f.eval is the one-row result of f.eval_dense, bit for bit."""
    M = parse_family(tag)
    indices = tuple(range(1, len(values) + 1))
    if name == "sqdist":
        z = SparseSequence.from_values(data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0)),
            min_size=len(values), max_size=len(values),
        )))
        assume(z)
        if luxemburg_norm(M, z) == 0.0:  # e.g. z = 5e-324 on non-delta2: the true norm underflows
            with pytest.raises(DomainError, match="underflows to 0"):
                squared_distance_objective(M, z)
            return
        f = squared_distance_objective(M, z)
    elif name == "modular":
        f = modular_objective(M, radius)
    elif name == "ball-quad":
        f = shifted_ball_objective(M, radius)
    else:
        f = inverse_bump_objective(M, radius)
    block = np.array([values, [0.0] * len(values)])
    dense = f.eval_dense(block, indices)
    assert f.eval(SparseSequence.from_values(values)) == dense[0]
    assert f.eval(SparseSequence()) == dense[1]
    if name != "sqdist":  # z's support needs columns
        assert f.eval(SparseSequence()) == f.eval_dense(np.zeros((1, 0)), ())[0]
