import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz import (
    BallSampler,
    Delta2RequiredError,
    DomainError,
    GridOracle,
    NotProperError,
    Objective,
    OrliczError,
    PerturbationWeights,
    SparseSequence,
    construct_local_perturbation,
    g_bounds,
    g_eval,
    g_eval_dense,
    luxemburg_norm,
    make_non_delta2,
    make_power,
    modular,
    modular_dense,
    modular_objective,
    nu_bound,
    perturb_minimize,
    project_tail,
    shifted_ball_objective,
    squared_distance_objective,
    support_from_below,
    supporting_functional,
)

M1 = make_power(1)
M2 = make_power(2)


# ---------------------------------------------------------------- weights


def test_weight_lookup_head_then_tail():
    a = PerturbationWeights(head=(0.5, 0.25), tail=0.1)
    assert a.weight_at(1) == 0.5
    assert a.weight_at(2) == 0.25
    assert a.weight_at(3) == 0.1
    assert a.weight_at(1000) == 0.1
    assert list(a.weights_for((1, 3))) == [0.5, 0.1]
    with pytest.raises(DomainError):
        a.weight_at(0)


def test_weight_validation():
    with pytest.raises(DomainError):
        PerturbationWeights(head=(-0.1,))
    with pytest.raises(DomainError):
        PerturbationWeights(tail=math.inf)
    # signed families may carry negative entries
    a = PerturbationWeights(head=(-0.1,), tail=0.2, signed=True)
    assert a.sup_norm == 0.2


def test_sup_norm_and_parts():
    a = PerturbationWeights(head=(0.3, -0.7), tail=-0.2, signed=True)
    assert a.sup_norm == 0.7
    pos, neg = a.positive_part(), a.negative_part()
    assert pos.head == (0.3, 0.0) and pos.tail == 0.0
    assert neg.head == (0.0, 0.7) and neg.tail == 0.2
    assert a.sup_norm == max(pos.sup_norm, neg.sup_norm)
    assert PerturbationWeights().sup_norm == 0.0


def test_weight_addition_extends_tails():
    # adding a tail-only family raises every coordinate, heads included
    a = PerturbationWeights(head=(0.5,), tail=0.1)
    b = PerturbationWeights(tail=0.2)
    c = a + b
    assert c.head == (0.7,)
    assert c.tail == pytest.approx(0.3)
    assert c.weight_at(5) == pytest.approx(0.3)


def test_weight_scale_and_round_trip():
    a = PerturbationWeights(head=(0.5, 0.25), tail=0.1)
    half = a.scale(0.5)
    assert half.head == (0.25, 0.125) and half.tail == 0.05
    flipped = a.scale(-1.0)
    assert flipped.signed
    assert PerturbationWeights.from_dict(a.to_dict()) == a


def test_g_all_ones_is_the_modular():
    ones = PerturbationWeights(tail=1.0)
    x = SparseSequence.from_pairs([(1, 0.5), (4, -0.25), (9, 2.0)])
    for M in (M1, M2, make_non_delta2()):
        assert g_eval(M, ones, x) == pytest.approx(modular(M, x), rel=1e-12)
    assert g_eval(M2, PerturbationWeights(), x) == 0.0
    assert g_eval(M2, ones, SparseSequence()) == 0.0


def test_g_head_tail_example():
    a = PerturbationWeights(head=(2.0,), tail=0.5)
    x = SparseSequence.from_pairs([(1, 1.0), (3, 2.0)])
    assert g_eval(M2, a, x) == 4.0  # 2*1 + 0.5*4


def test_g_is_additive_and_homogeneous_in_the_weights():
    x = SparseSequence.from_pairs([(1, 0.3), (2, 1.1), (7, -0.6)])
    a = PerturbationWeights(head=(0.5, 0.25), tail=0.125)
    b = PerturbationWeights(head=(0.25,), tail=0.5)
    ga, gb = g_eval(M2, a, x), g_eval(M2, b, x)
    assert g_eval(M2, a + b, x) == pytest.approx(ga + gb, rel=1e-12)
    # dyadic scaling commutes exactly
    assert g_eval(M2, a.scale(0.5), x) == 0.5 * ga
    assert g_eval(M2, a.scale(0.3), x) == pytest.approx(0.3 * ga, rel=1e-12)


def test_g_splits_through_signed_parts():
    x = SparseSequence.from_pairs([(1, 0.3), (2, 1.1)])
    a = PerturbationWeights(head=(0.5, -0.25), tail=0.0, signed=True)
    split = g_eval(M2, a.positive_part(), x) - g_eval(M2, a.negative_part(), x)
    assert g_eval(M2, a, x) == pytest.approx(split, rel=1e-12)


def test_g_dense_matches_scalar():
    a = PerturbationWeights(head=(0.5,), tail=0.25)
    rows = np.array([[0.3, -1.1, 0.0], [0.0, 0.0, 2.0]])
    indices = (1, 2, 5)
    dense = g_eval_dense(M2, a, rows, indices)
    for row, got in zip(rows, dense):
        x = SparseSequence.from_pairs(
            (i, v) for i, v in zip(indices, row) if v != 0.0
        )
        assert got == pytest.approx(g_eval(M2, a, x), rel=1e-12)
    assert g_eval_dense(M2, a, np.array([0.3, 0.0, 0.0]), indices).shape == (1,)


def test_g_past_the_float_range_is_inf_silently():
    # 1000^110 overflows: g_a reads +inf, as the modular does, and warns of nothing.
    M = make_power(110.0)
    x = SparseSequence.from_pairs([(1, 1e3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g_eval(M, PerturbationWeights(tail=1.0), x) == modular(M, x) == math.inf


def test_g_bounds_hold_on_samples():
    a = PerturbationWeights(head=(0.5, 0.1), tail=0.25)
    K = 1.5
    sup_b, lip_b = g_bounds(M2, a, K)
    assert sup_b == a.sup_norm * nu_bound(M2, K)
    pts = BallSampler(seed=31, count=60, support_size=4, index_range=12, decades=1.5).points(M2, K)
    for x in pts:
        assert g_eval(M2, a, x) <= sup_b * (1.0 + 1e-9)
    for x, y in zip(pts, pts[1:]):
        gap = abs(g_eval(M2, a, x) - g_eval(M2, a, y))
        assert gap <= lip_b * luxemburg_norm(M2, x - y) + 1e-12


# ---------------------------------------------------------- construction


def test_construct_at_zero():
    a, delta = construct_local_perturbation(M1, SparseSequence(), 1.0, 0.1)
    assert delta == 1.0 / 960.0
    assert a.head == ()
    assert a.tail == 0.1
    assert a.sup_norm == 0.1


def test_construct_at_small_point():
    x = SparseSequence.from_pairs([(1, 0.3)])
    a, delta = construct_local_perturbation(M1, x, 1.0, 0.1)
    assert delta == 1.0 / 960.0
    assert a.head == (delta / 8.0,)  # theta = delta / (4 nu(1)), nu(1) = 2
    assert a.tail == 0.1
    assert a.sup_norm == 0.1
    assert g_eval(M1, a, x) == pytest.approx(3.90625e-5)
    assert g_eval(M1, a, x) < delta


def test_construct_pins_tails():
    # any y in the ball with g_a(y) <= 3 delta has small tail norm
    x = SparseSequence.from_pairs([(1, 0.3)])
    a, delta = construct_local_perturbation(M1, x, 1.0, 0.1)
    n_head = len(a.head)
    spike = SparseSequence.from_pairs([(n_head + 3, 0.03)])
    assert g_eval(M1, a, spike) <= 3.0 * delta
    assert luxemburg_norm(M1, project_tail(spike, n_head)) < 0.1
    kept = 0
    for y in BallSampler(seed=3, count=300, support_size=5, index_range=12, decades=4.0).points(M1, 1.0):
        if g_eval(M1, a, y) <= 3.0 * delta:
            kept += 1
            assert luxemburg_norm(M1, project_tail(y, n_head)) < 0.1
    assert kept >= 10


def test_construct_validation():
    with pytest.raises(DomainError):
        construct_local_perturbation(M1, SparseSequence(), 1.0, 0.0)
    with pytest.raises(DomainError):
        construct_local_perturbation(M1, SparseSequence(), 0.0, 0.1)
    with pytest.raises(DomainError):
        construct_local_perturbation(M1, SparseSequence.from_pairs([(1, 5.0)]), 1.0, 0.1)
    with pytest.raises(Delta2RequiredError):
        construct_local_perturbation(make_non_delta2(), SparseSequence(), 1.0, 0.1)


def _reference_head_length(M, x, eps, delta):
    """The head-length scan that construct_local_perturbation replaced: one tail modular per step."""
    N = 0
    while eps * modular(M, project_tail(x, N)) >= delta / 2.0:
        N += 1
    return N


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    pairs=st.dictionaries(st.integers(1, 40), st.floats(1e-6, 1.0) | st.floats(-1.0, -1e-6), max_size=25),
    eps=st.floats(1e-4, 1.0),
)
def test_head_length_equals_the_tail_modular_scan(p, pairs, eps):
    M = make_power(p)
    x = SparseSequence.from_pairs(pairs.items())
    a, delta = construct_local_perturbation(M, x, max(1.0, luxemburg_norm(M, x)), eps)
    assert len(a.head) == _reference_head_length(M, x, eps, delta)


# ----------------------------------------------------------------- oracle


def test_grid_oracle_shape_and_lookup():
    oracle = GridOracle(indices=(1, 2), step=0.5, radius=1.0)
    assert len(oracle.grid()) == 25
    mid = len(oracle.grid()) // 2
    assert oracle.sequence_at(mid) == SparseSequence()
    assert "points=25" in oracle.describe()
    vals = oracle.evaluate(lambda rows, idx: modular_dense(M2, rows))
    assert vals.min() == 0.0
    dense_vals = oracle.evaluate(lambda rows, idx: np.asarray(rows ** 2).sum(axis=1))
    assert dense_vals.shape == vals.shape


def test_grid_oracle_validation():
    with pytest.raises(DomainError):
        GridOracle(indices=())
    with pytest.raises(DomainError):
        GridOracle(indices=(1, 1))
    with pytest.raises(DomainError):
        GridOracle(indices=(0,))
    with pytest.raises(DomainError):
        GridOracle(step=2.0, radius=1.0)


# ----------------------------------------------------------------- engine


def small_oracle():
    return GridOracle(indices=(1, 2, 3), step=0.25, radius=1.0)


def test_minimize_modular_converges_at_zero():
    rep = perturb_minimize(M2, modular_objective(M2, radius=1.0), 0.1, small_oracle())
    assert rep.converged
    assert rep.iterations == 1
    assert rep.minimizer == SparseSequence()
    assert rep.min_value == 0.0
    assert rep.compactness_proxy == 0.0
    # coercive objective: no initial uniform weight, one round's tail only
    assert rep.weights.head == ()
    assert rep.weights.tail == 0.1 * 2.0 ** -3
    assert rep.weights.sup_norm < 0.1
    assert "points=729" in rep.certificate_resolution


def test_minimize_noncoercive_gets_uniform_seed_weight():
    rep = perturb_minimize(M2, shifted_ball_objective(M2, radius=1.0), 0.1, small_oracle())
    assert rep.converged
    assert rep.min_value == pytest.approx(1.0)
    # eps/4 seed plus the round-1 budget eps/8
    assert rep.weights.tail == pytest.approx(0.1 / 4.0 + 0.1 / 8.0)


def test_minimize_reports_value_consistently():
    f = squared_distance_objective(M2, SparseSequence.from_pairs([(1, 0.5), (2, -0.25)]))
    rep = perturb_minimize(M2, f, 0.1, small_oracle())
    assert rep.converged
    total = f.eval(rep.minimizer) + g_eval(M2, rep.weights, rep.minimizer)
    assert rep.min_value == pytest.approx(total, rel=1e-12)
    assert rep.minimizer == SparseSequence.from_pairs([(1, 0.5), (2, -0.25)])


def test_minimize_budget_exhaustion_stays_under_eps():
    rep = perturb_minimize(
        M2, modular_objective(M2, radius=1.0), 0.1, small_oracle(),
        budget=4, tail_tol=0.0,
    )
    assert not rep.converged
    assert rep.iterations == 4
    assert rep.weights.sup_norm < 0.1


def test_minimize_validation_and_properness():
    f = modular_objective(M2, radius=1.0)
    with pytest.raises(DomainError):
        perturb_minimize(M2, f, 0.0, small_oracle())
    with pytest.raises(DomainError):
        perturb_minimize(M2, f, 0.1, small_oracle(), budget=0)
    improper = Objective(eval=lambda x: math.inf, domain_radius=1.0, lower_bound=0.0)
    with pytest.raises(NotProperError):
        perturb_minimize(M2, improper, 0.1, small_oracle())
    lying = Objective(eval=lambda x: -1.0, domain_radius=1.0, lower_bound=0.0)
    with pytest.raises(OrliczError):
        perturb_minimize(M2, lying, 0.1, small_oracle())


def test_minimize_without_doubling_constant_fails_before_the_sweep():
    def untouchable(*args):
        raise AssertionError("the grid was evaluated")

    f = Objective(
        eval=lambda x: 0.0, domain_radius=1.0, lower_bound=0.0,
        eval_dense=untouchable, eval_grid=untouchable,
    )
    with pytest.raises(Delta2RequiredError):
        perturb_minimize(make_non_delta2(), f, 0.1, small_oracle())


# ---------------------------------------------------------------- support


def test_support_weights_live_in_the_band():
    oracle = small_oracle()
    rep = support_from_below(M2, modular_objective(M2, radius=1.0), 0.2, 1.0, oracle)
    assert rep.inner.converged
    for v in (*rep.weights.head, rep.weights.tail):
        assert 0.2 < v <= 1.0
    assert not rep.weights.signed


def test_support_touches_from_below_on_grid():
    oracle = small_oracle()
    f = squared_distance_objective(M2, SparseSequence.from_pairs([(1, 0.5)]))
    rep = support_from_below(M2, f, 0.1, 0.5, oracle)
    assert rep.inner.converged
    touched = f.eval(rep.minimizer) - g_eval(M2, rep.weights, rep.minimizer)
    assert rep.supported_value == pytest.approx(touched, rel=1e-12)
    for i in range(len(oracle.grid())):
        y = oracle.sequence_at(i)
        if luxemburg_norm(M2, y) <= f.domain_radius * (1.0 + 1e-9):
            assert f.eval(y) - g_eval(M2, rep.weights, y) >= rep.supported_value - 1e-9


def test_support_validation():
    with pytest.raises(DomainError):
        support_from_below(M2, modular_objective(M2, radius=1.0), 0.5, 0.5, small_oracle())
    with pytest.raises(DomainError):
        support_from_below(M2, modular_objective(M2, radius=1.0), 0.0, 1.0, small_oracle())


# ------------------------------------------------------------- functional


def test_supporting_functional_closed_form():
    ones = PerturbationWeights(tail=1.0)
    x_bar = SparseSequence.from_pairs([(1, 0.5)])
    p, bound = supporting_functional(M2, ones, x_bar, 1.0)
    assert p.entries == ((1, 1.0),)  # M'(1/2) = 1 for t^2
    assert bound == 2.0 * nu_bound(M2, 3.0)
    p_neg, _ = supporting_functional(M2, ones, SparseSequence.from_pairs([(2, -0.5)]), 1.0)
    assert p_neg.entries == ((2, -1.0),)
    p_zero, _ = supporting_functional(M2, ones, SparseSequence(), 1.0)
    assert p_zero == SparseSequence()


def test_supporting_functional_leaves_a_zero_slope_out():
    # M'(t) = 3 t^2 underflows to 0 at t = 1e-200.
    M3 = make_power(3.0)
    x_bar = SparseSequence.from_pairs([(1, 1e-200), (2, -0.5)])
    p, _ = supporting_functional(M3, PerturbationWeights(tail=1.0), x_bar, 1.0)
    assert p.entries == ((2, -0.75),)


def test_supporting_functional_subgradient_inequality():
    a = PerturbationWeights(head=(0.8, 0.3), tail=0.5)
    x_bar = SparseSequence.from_pairs([(1, 0.4), (3, -0.2)])
    # the seeded spot check inside must pass for a convex family
    p, _ = supporting_functional(M2, a, x_bar, 1.0, check_samples=80, seed=11)
    g_bar = g_eval(M2, a, x_bar)
    for y in BallSampler(seed=13, count=60, support_size=4, index_range=8).points(M2, 1.0):
        h = y - x_bar
        pairing = sum(p.value_at(i) * v for i, v in h.entries)
        assert g_eval(M2, a, y) - g_bar - pairing >= -1e-10


def test_supporting_functional_spot_check_rejects_a_nonconvex_g():
    # A negative head weight makes g_a concave along e_1: there the gap is
    # -0.5 (y_1 - 0.4)^2, so the sampled block (the zero row already) fails.
    a = PerturbationWeights(head=(-0.5,), tail=0.5, signed=True)
    x_bar = SparseSequence.from_pairs([(1, 0.4), (2, 0.1)])
    with pytest.raises(OrliczError, match="subgradient inequality failed"):
        supporting_functional(M2, a, x_bar, 1.0, check_samples=80)
