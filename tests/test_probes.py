import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz import (
    DomainError,
    OrliczError,
    OrliczFunction,
    PerturbationWeights,
    ProbeReport,
    SparseSequence,
    classify_space,
    g_eval,
    luxemburg_norm,
    make_non_delta2,
    make_power,
    modular,
    parse_family,
    probe_l1,
    probe_p_growth,
    probe_second_derivative,
    second_difference,
)

M1 = make_power(1)
M15 = make_power(1.5)
M2 = make_power(2)
ONES = PerturbationWeights(tail=1.0)


def test_probe_report_validation():
    with pytest.raises(DomainError):
        ProbeReport("p", (0.1,), (1.0, 2.0), 1.0, "inconclusive")
    with pytest.raises(DomainError):
        ProbeReport("p", (0.1, 0.1), (1.0, 2.0), 1.0, "inconclusive")
    with pytest.raises(DomainError):
        ProbeReport("p", (0.1,), (math.inf,), 1.0, "inconclusive")
    r = ProbeReport("p", (0.1, 0.01), (1.0, 2.0), 1.0, "inconclusive", notes="n")
    assert r.to_dict()["notes"] == "n"


def test_second_difference_vanishes_on_affine():
    p = SparseSequence.from_pairs([(1, 2.0), (3, -1.0)])

    def affine(x):
        return 3.0 + sum(p.value_at(i) * v for i, v in x.entries)

    x = SparseSequence.from_pairs([(1, 0.2)])
    h = SparseSequence.from_pairs([(1, 0.1), (3, 0.05)])
    assert abs(second_difference(M2, affine, x, h, p=1.0)) <= 1e-12


def test_second_difference_quadratic_direction():
    # fresh coordinate from zero: sigma(te1) + sigma(-te1) = 2 M(t)
    sd = second_difference(
        M2, lambda x: modular(M2, x), SparseSequence(),
        SparseSequence.from_pairs([(1, 0.5)]), p=2.0,
    )
    assert sd == pytest.approx(2.0, rel=1e-9)


def test_second_difference_kink_identity():
    # l1 modular at a coordinate below the probe scale: 2 (t - |x_n|) / t
    x = SparseSequence.from_pairs([(1, 0.05)])
    sd = second_difference(
        M1, lambda y: modular(M1, y), x,
        SparseSequence.from_pairs([(1, 0.2)]), p=1.0,
    )
    assert sd == pytest.approx(2.0 * (0.2 - 0.05) / 0.2, rel=1e-9)


def test_second_difference_validation():
    f = lambda x: modular(M2, x)
    h = SparseSequence.from_pairs([(1, 0.1)])
    with pytest.raises(DomainError):
        second_difference(M2, f, SparseSequence(), SparseSequence(), p=1.0)
    with pytest.raises(DomainError):
        second_difference(M2, f, SparseSequence(), h, p=0.0)
    with pytest.raises(DomainError):
        second_difference(M2, lambda x: math.inf, SparseSequence(), h, p=1.0)
    with pytest.raises(OrliczError):
        second_difference(M2, lambda x: -modular(M2, x), SparseSequence(), h, p=1.0, convex=True)


def test_l1_probe_confirms_on_linear_family():
    x_bar = SparseSequence.from_pairs([(1, 0.05)])
    r = probe_l1(M1, ONES, x_bar, (0.1, 0.01, 0.001))
    assert r.probe_name == "l1-kink"
    assert r.verdict == "obstruction-confirmed"
    assert r.threshold == 1.9
    # fresh coordinates past the support give exactly 2 a_n = 2
    for q in r.quotients:
        assert q == pytest.approx(2.0, rel=1e-9)
    assert "1..51" in r.notes  # max_index 1 + 50 default margin


def test_l1_probe_inconclusive_on_superlinear_family():
    x_bar = SparseSequence.from_pairs([(1, 0.05)])
    r = probe_l1(M2, ONES, x_bar, (0.1, 0.01))
    assert r.verdict == "inconclusive"
    # quotient collapses like 2 M(t)/t = 2t
    assert r.quotients[0] == pytest.approx(0.2, rel=1e-9)
    with pytest.raises(DomainError):
        probe_l1(M1, ONES, x_bar, ())
    with pytest.raises(DomainError):
        probe_l1(M1, ONES, x_bar, (0.1, -0.1))


def test_l1_probe_matches_per_coordinate_second_differences():
    # The spike norm is computed once per scale; every quotient must still be
    # the sup of second_difference over the probed coordinates.
    M = make_non_delta2()
    a = PerturbationWeights(head=(1.5, 0.5, 2.0), tail=1.0)
    x_bar = SparseSequence.from_pairs([(1, 0.05), (3, -0.2)])
    scales = (0.3, 0.05)
    r = probe_l1(M, a, x_bar, scales, n_probe=8)
    for t, q in zip(scales, r.quotients):
        expected = max(
            second_difference(
                M, lambda y: g_eval(M, a, y), x_bar,
                SparseSequence.from_pairs([(n, t)]), p=1.0, convex=True,
            )
            for n in range(1, 9)
        )
        assert q == expected


def test_l1_probe_respects_n_probe():
    r = probe_l1(M1, ONES, SparseSequence(), (0.1,), n_probe=3)
    assert "1..3" in r.notes
    assert r.verdict == "obstruction-confirmed"


def test_l1_probe_block_is_bounded_before_allocation():
    with pytest.raises(DomainError, match="n_probe"):
        probe_l1(M1, ONES, SparseSequence(), (0.1,), n_probe=0)
    with pytest.raises(DomainError, match="n_probe"):
        probe_l1(M1, ONES, SparseSequence(), (0.1, 0.01), n_probe=(1 << 21) + 1)
    far = SparseSequence.from_pairs([(10 ** 9, 1.0)])
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="n_probe"):
            probe_l1(M1, ONES, far, (0.1, 0.01))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the default block would hold 2 x 10^9 cells


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["power:1", "power:1.5", "power:2", "non-delta2"]),
    head=st.lists(st.floats(min_value=0.0, max_value=3.0), max_size=5),
    tail=st.floats(min_value=0.0, max_value=3.0),
    x_bar=st.dictionaries(
        st.integers(1, 8),
        st.floats(min_value=-1.0, max_value=1.0).filter(lambda v: v != 0.0),
        max_size=5,
    ),
    scales=st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=4, unique=True
    ),
    n_probe=st.integers(1, 12),
)
def test_l1_probe_matches_full_sum_second_differences(family, head, tail, x_bar, scales, n_probe):
    # Reference: the sup over n of second_difference of g_a along t*e_n, where
    # each g_a is a full sum over the support.  Its cancellation error is at
    # most a few ulps of g(x+h) + g(x-h) + 2 g(x), or of the smallest
    # subnormal where those underflow, scaled by 1/||h||.
    M = parse_family(family)
    a = PerturbationWeights(head=tuple(head), tail=tail)
    x = SparseSequence.from_pairs(x_bar.items())
    scales = sorted(scales, reverse=True)
    r = probe_l1(M, a, x, scales, n_probe=n_probe)

    def g(y):
        return g_eval(M, a, y)

    decided, ref_confirmed = True, True
    for t, q in zip(scales, r.quotients):
        refs, slacks = [], []
        for n in range(1, n_probe + 1):
            h = SparseSequence.from_pairs([(n, t)])
            refs.append(second_difference(M, g, x, h, 1.0, convex=True))
            mass = g(x + h) + g(x - h) + 2.0 * g(x)
            slacks.append(64 * (2.0 ** -52 * mass + 2.0 ** -1074) / luxemburg_norm(M, h))
        ref = max(refs)
        ref_confirmed = ref_confirmed and ref >= r.threshold
        bound = 1e-12 * abs(ref) + max(slacks)
        assert abs(q - ref) <= bound
        if abs(ref - r.threshold) > bound:
            assert (q >= r.threshold) == (ref >= r.threshold)
        else:
            decided = False
    if decided:
        assert r.verdict == ("obstruction-confirmed" if ref_confirmed else "inconclusive")


def test_l1_probe_kink_quotients_are_exact():
    # Each spike touches one coordinate, so no full sum cancels: fresh
    # coordinates give (t + t - 0) / t = 2 exactly at every scale.
    x_bar = SparseSequence.from_pairs((j, 2.0 ** -j) for j in range(1, 21))
    r = probe_l1(M1, ONES, x_bar, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    assert r.quotients == (2.0,) * 5
    assert r.verdict == "obstruction-confirmed"


def test_growth_probe_diverges_for_intermediate_power():
    r = probe_p_growth(M15, 2.0, 5)
    assert r.probe_name == "growth-order-2"
    assert r.verdict == "obstruction-confirmed"
    assert r.threshold == 10.0
    assert len(r.scales) == 5
    for k, (t, q) in enumerate(zip(r.scales, r.quotients), start=1):
        assert q > 2.0 * k
        assert q == pytest.approx(2.0 * t ** -0.5, rel=1e-12)  # 2 M(t)/t^2 for t^1.5


def test_growth_probe_exhausts_on_matching_power():
    # M(t)/t^2 = 1 for t^2: no scan point ever clears k = 1
    r = probe_p_growth(M2, 2.0, 3)
    assert r.verdict == "inconclusive"
    assert r.scales == ()
    assert "exhausted" in r.notes
    assert "0 of 3" in r.notes


def test_growth_probe_validation():
    with pytest.raises(DomainError):
        probe_p_growth(M15, 1.0, 3)
    with pytest.raises(DomainError):
        probe_p_growth(M15, 2.5, 3)
    with pytest.raises(DomainError):
        probe_p_growth(M15, 2.0, 0)


def test_curvature_probe_blowup():
    r = probe_second_derivative(M15, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    assert r.probe_name == "curvature-nonzero"
    assert r.verdict == "obstruction-confirmed"
    # M''(t) = 0.75 t^-1/2 for t^1.5
    assert r.quotients[-1] == pytest.approx(750.0, rel=1e-12)
    assert r.threshold == 2.0 * r.quotients[-2]


def test_curvature_probe_flat_for_quadratic():
    r = probe_second_derivative(M2, (1e-2, 1e-3))
    assert r.verdict == "inconclusive"
    assert r.quotients == (2.0, 2.0)


def test_curvature_probe_zero_mode():
    r = probe_second_derivative(make_power(1.2), (1e-2, 1e-3, 1e-4), x_bar_mode="zero")
    assert r.probe_name == "curvature-zero"
    assert r.verdict == "obstruction-confirmed"
    for t, q in zip(r.scales, r.quotients):
        assert q == pytest.approx(2.0 * t ** -0.8, rel=1e-11)


def test_curvature_probe_drops_broken_scales():
    bare = OrliczFunction(eval=M15.eval, t_bar=2.0, family_tag="bare")
    with pytest.warns(UserWarning):
        r = probe_second_derivative(bare, (1e-2, 1e-3, 1e-9))
    assert r.scales == (1e-2, 1e-3)  # the 1e-9 stencil left the domain
    with pytest.warns(UserWarning), pytest.raises(OrliczError):
        probe_second_derivative(bare, (1e-2, 1e-9))


def test_curvature_probe_validation():
    with pytest.raises(DomainError):
        probe_second_derivative(M2, (1e-2,), x_bar_mode="sideways")
    with pytest.raises(DomainError):
        probe_second_derivative(M2, ())


def test_classify_linear_family():
    c = classify_space(M1)
    assert c.delta2_ok
    assert c.delta2_constant == pytest.approx(0.5, rel=1e-9)
    assert c.excluded == (
        "frechet-bump",
        "order-1.25-estimate-bump",
        "order-1.5-estimate-bump",
        "order-1.75-estimate-bump",
        "order-2-estimate-bump",
    )


def test_classify_intermediate_family():
    c = classify_space(M15)
    assert c.excluded == (
        "order-1.75-estimate-bump",
        "order-2-estimate-bump",
        "twice-gateaux-bump",
    )
    # growth orders at or below 1.5 remain open
    assert not any("order-1.25" in e or "order-1.5-" in e for e in c.excluded)


def test_classify_quadratic_family_excludes_nothing():
    c = classify_space(M2)
    assert c.delta2_ok
    assert c.excluded == ()
    assert all(r.verdict == "inconclusive" for r in c.evidence)


def test_classify_without_doubling_stops_early():
    c = classify_space(make_non_delta2())
    assert not c.delta2_ok
    assert c.delta2_constant is None
    assert c.excluded == ()
    assert c.evidence == ()
    assert "inapplicable" in c.notes


def test_classify_is_deterministic():
    a = classify_space(M15).to_dict()
    b = classify_space(M15).to_dict()
    assert a == b
    assert repr(a) == repr(b)
