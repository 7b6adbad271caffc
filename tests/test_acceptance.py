"""Acceptance gate: one test per shipped guarantee.

Each test pins the tolerance it promises and the conftest hook echoes a
PASS/FAIL line per criterion in the terminal summary.  Tests are ordered
so the cheap numeric guarantees run before the two full-grid solver runs.
"""

import time

import numpy as np
import pytest

from orlicz import (
    GridOracle,
    Objective,
    PerturbationWeights,
    SparseSequence,
    construct_local_perturbation,
    g_eval,
    g_eval_dense,
    inverse_bump_objective,
    intersection_lemma_check,
    luxemburg_norm,
    luxemburg_norm_dense,
    make_non_delta2,
    make_power,
    modular,
    modular_dense,
    non_delta2_witness,
    nu_bound,
    perturb_minimize,
    probe_l1,
    probe_p_growth,
    probe_second_derivative,
    shifted_ball_objective,
    squared_distance_objective,
    support_from_below,
    supporting_functional,
)

CONFIRMED = "obstruction-confirmed"
INCONCLUSIVE = "inconclusive"

POWERS = (1.0, 1.5, 2.0, 3.0)


def random_sparse(rng, max_support, index_span, value_span=1.0):
    size = int(rng.integers(1, max_support + 1))
    idx = rng.choice(np.arange(1, index_span + 1), size=size, replace=False)
    vals = rng.uniform(-value_span, value_span, size=size)
    pairs = [(int(i), float(v)) for i, v in zip(idx, vals) if v != 0.0]
    return SparseSequence.from_pairs(pairs)


def test_criterion_01_closed_form_norms():
    """criterion 01 power norms match the closed form to 1e-10"""
    rng = np.random.default_rng(101)
    for p in POWERS:
        M = make_power(p)
        for _ in range(1000):
            x = random_sparse(rng, 20, 60, value_span=3.0)
            vals = np.array([v for _, v in x.entries])
            expected = float(np.sum(np.abs(vals) ** p) ** (1.0 / p))
            assert luxemburg_norm(M, x) == pytest.approx(expected, rel=1e-10)


def test_criterion_02_modular_norm_comparison():
    """criterion 02 modular sits below the norm inside the ball, above outside"""
    rng = np.random.default_rng(202)
    cases = [(make_power(p), p != 1.0) for p in POWERS]
    cases.append((make_non_delta2(), True))
    for M, strict_above in cases:
        for _ in range(1000):
            x = random_sparse(rng, 8, 40)
            x = x * float(10.0 ** rng.uniform(-1.0, 0.5))
            n = luxemburg_norm(M, x)
            s = modular(M, x)
            if n <= 1.0:
                assert s <= n + 1e-12
            elif n > 1.0 + 1e-9:
                if strict_above:
                    assert s > n
                else:
                    # the t -> t gauge: modular and norm are the same sum
                    assert s == pytest.approx(n, rel=1e-9)
            assert modular(M, x * (1.0 / n)) == pytest.approx(1.0, abs=1e-9)


def test_criterion_03_doubling_chain():
    """criterion 03 the doubling constant chains through modular and M"""
    rng = np.random.default_rng(303)
    for p in POWERS:
        M = make_power(p)
        C = M.delta2_constant
        assert C == 2.0 ** -p
        for _ in range(1000):
            x = random_sparse(rng, 8, 30)
            n = luxemburg_norm(M, x)
            if n > 1.0:
                x = x * (0.99 / n)
            assert modular(M, x) >= C * modular(M, x * 2.0) - 1e-12
        ts = np.geomspace(1e-6, M.t_bar, 40)
        for m in range(1, 11):
            lhs = M.eval(ts * 2.0 ** -m)
            rhs = C ** m * M.eval(ts)
            assert np.all(lhs >= rhs * (1.0 - 1e-12))


def test_criterion_04_strong_minimum():
    """criterion 04 modular below C^m forces norm below 2^-m"""
    rng = np.random.default_rng(404)
    for p in POWERS:
        M = make_power(p)
        C = M.delta2_constant
        for m in range(1, 7):
            rows = rng.uniform(-1.0, 1.0, size=(1700, 12))
            rows[rng.uniform(size=rows.shape) < 0.5] = 0.0
            sigma = modular_dense(M, rows)
            rows = rows[sigma > 0.0]
            sigma = sigma[sigma > 0.0]
            target = C ** m * rng.uniform(0.05, 1.0, size=len(rows))
            rows = rows * ((target / sigma) ** (1.0 / p))[:, None]
            rows = rows[modular_dense(M, rows) <= C ** m]
            assert len(rows) > 1500
            assert np.all(luxemburg_norm_dense(M, rows) <= 2.0 ** -m + 1e-9)


def test_criterion_05_non_doubling_witness():
    """criterion 05 witness plateaus: small modular, norm pinned near 1/2"""
    M = make_non_delta2()
    sigmas = []
    for k in (5, 10, 20, 50):
        x, st = non_delta2_witness(M, k)
        assert st.sigma_x < 1.0 / k + M(st.t_k)
        assert st.sigma_2x <= 1.0 + 1e-12
        if k >= 20:
            assert 0.4 <= st.norm_x <= 0.55
        assert modular(M, x) == pytest.approx(st.sigma_x, rel=1e-12)
        sigmas.append(st.sigma_x)
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


def _tail_pinning_holds(M, a, delta, K, eps, rng):
    """1000 accepted points with g <= 3*delta and norm <= K: tails under eps."""
    N = len(a.head)
    d = max(N + 4, 10)
    cols = tuple(range(1, d + 1))
    head_cols = np.arange(d) < N
    batches = []
    total = 0
    for _ in range(8):
        rows = rng.uniform(-1.0, 1.0, size=(1500, d))
        if N > 0:
            rows[:750, ~head_cols] = 0.0
        norms = luxemburg_norm_dense(M, rows)
        rows = rows[norms > 0.0]
        norms = norms[norms > 0.0]
        scale = K * 10.0 ** rng.uniform(-5.0, -0.01, size=len(rows))
        rows = rows * (scale / norms)[:, None]
        accepted = rows[g_eval_dense(M, a, rows, cols) <= 3.0 * delta]
        batches.append(accepted)
        total += len(accepted)
        if total >= 1000:
            break
    rows = np.concatenate(batches)[:1000]
    assert len(rows) == 1000
    tails = rows.copy()
    tails[:, head_cols] = 0.0
    return bool(np.all(luxemburg_norm_dense(M, tails) < eps))


def test_criterion_06_local_perturbation():
    """criterion 06 constructed weights pin the tails of small-g points"""
    rng = np.random.default_rng(606)
    for M in (make_power(1.0), make_power(2.0)):
        for eps in (0.5, 0.1, 0.01):
            for case in range(100):
                if case == 0:
                    x, K = SparseSequence(), 1.0
                else:
                    x = random_sparse(rng, 6, 18)
                    K = float(luxemburg_norm(M, x) * rng.uniform(1.0, 2.5))
                a, delta = construct_local_perturbation(M, x, K, eps)
                assert a.sup_norm == eps
                assert g_eval(M, a, x) < delta
                assert _tail_pinning_holds(M, a, delta, K, eps, rng)


def test_criterion_09_intersection_lemma():
    """criterion 09 near-minimizer containment across random quadratic pairs"""

    def quadratic(rng):
        w = rng.uniform(0.3, 2.0, size=2)
        z = rng.uniform(-0.5, 0.5, size=2)
        c = float(rng.uniform(0.0, 1.0))

        def eval_fn(x):
            return float(
                w[0] * (x.value_at(1) - z[0]) ** 2
                + w[1] * (x.value_at(2) - z[1]) ** 2
                + c
            )

        return Objective(eval=eval_fn, domain_radius=1.0, lower_bound=c)

    M = make_power(2.0)
    rng = np.random.default_rng(909)
    sampler = GridOracle((1, 2), step=0.1, radius=1.0)
    nonempty = 0
    for _ in range(1000):
        chk = intersection_lemma_check(
            M, quadratic(rng), quadratic(rng),
            K=1.0, delta=float(rng.uniform(0.02, 0.25)), sampler=sampler,
        )
        assert chk.holds
        nonempty += chk.hypothesis_nonempty
    assert nonempty > 0


def test_criterion_10_l1_kink_probe():
    """criterion 10 kink quotients hold at 2 for the l1-like gauge"""
    M = make_power(1.0)
    a = PerturbationWeights(head=(1.0,) * 20, tail=1.0)
    x_bar = SparseSequence.from_pairs((j, 2.0 ** -j) for j in range(1, 21))
    rep = probe_l1(M, a, x_bar, scales=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    assert rep.verdict == CONFIRMED
    assert all(q >= 1.9 for q in rep.quotients)


def test_criterion_11_growth_probe():
    """criterion 11 growth quotients clear 2k scale by scale"""
    rep = probe_p_growth(make_power(1.5), p=2.0, k_max=10)
    assert rep.verdict == CONFIRMED
    assert len(rep.scales) == 10
    for k, (t, q) in enumerate(zip(rep.scales, rep.quotients), start=1):
        assert q == pytest.approx(2.0 * t ** -0.5, rel=1e-12)
        assert q > 2.0 * k
        assert t < k ** -2.0
    assert probe_p_growth(make_power(2.0), p=2.0, k_max=10).verdict == INCONCLUSIVE


def test_criterion_12_curvature_probe():
    """criterion 12 curvature quotients blow up where growth is slow"""
    scales = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    rep = probe_second_derivative(make_power(1.5), scales)
    assert rep.verdict == CONFIRMED
    assert rep.quotients[-1] == pytest.approx(750.0, rel=1e-12)
    assert all(
        q == pytest.approx(0.75 * t ** -0.5, rel=1e-12)
        for t, q in zip(rep.scales, rep.quotients)
    )
    flat = probe_second_derivative(make_power(2.0), scales)
    assert flat.verdict == INCONCLUSIVE
    assert all(q == 2.0 for q in flat.quotients)


def test_criterion_13_supporting_functional():
    """criterion 13 closed-form subgradients hold to 1e-10 with the norm bound"""
    M = make_power(2.0)
    rng = np.random.default_rng(1313)
    for _ in range(100):
        n_head = int(rng.integers(0, 9))
        a = PerturbationWeights(
            head=tuple(rng.uniform(0.05, 1.5, size=n_head).tolist()),
            tail=float(rng.uniform(0.01, 0.5)),
        )
        x_bar = random_sparse(rng, 6, 12)
        p, bound = supporting_functional(M, a, x_bar, K=1.0)
        assert bound == 2.0 * a.sup_norm * nu_bound(M, 3.0)
        d = max(12, n_head + 2)
        cols = tuple(range(1, d + 1))
        rows = rng.standard_normal((100, d)) * 10.0 ** rng.uniform(
            -3.0, 0.0, size=(100, 1)
        )
        p_dense = np.array([p.value_at(i) for i in cols])
        x_dense = np.array([x_bar.value_at(i) for i in cols])
        gaps = (
            g_eval_dense(M, a, rows, cols)
            - g_eval(M, a, x_bar)
            - (rows - x_dense) @ p_dense
        )
        assert np.all(gaps >= -1e-10)


def test_criterion_14_end_to_end_obstruction():
    """criterion 14 supported bump minimizer feeds the kink probe"""
    M = make_power(1.0)
    f = inverse_bump_objective(M, 1.0)
    oracle = GridOracle((1, 2), step=0.05, radius=1.0)
    report = support_from_below(M, f, 1.0, 2.0, oracle)
    assert all(1.0 <= w <= 2.0 for w in (report.weights.tail, *report.weights.head))
    rep = probe_l1(
        M, report.weights, report.minimizer, scales=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    )
    assert rep.verdict == CONFIRMED
    assert all(q >= 1.9 for q in rep.quotients)


def test_criterion_07_perturbed_solve_certificate():
    """criterion 07 distance solve certifies on the full grid inside 60s"""
    M = make_power(2.0)
    z = SparseSequence.from_pairs([(1, 31 * 0.01), (2, 17 * 0.01), (3, 5 * 0.01)])
    f = squared_distance_objective(M, z)
    oracle = GridOracle((1, 2, 3), step=0.01, radius=1.0)
    start = time.monotonic()
    report = perturb_minimize(M, f, eps=0.1, oracle=oracle)
    assert time.monotonic() - start < 60.0
    assert report.weights.sup_norm < 0.1
    assert report.converged

    def dense_total(rows, indices):
        return f.eval_dense(rows, indices) + g_eval_dense(
            M, report.weights, rows, indices
        )

    vals = oracle.evaluate(dense_total)
    assert np.all(vals >= report.min_value - 0.02)
    assert vals.min() == pytest.approx(report.min_value, abs=1e-12)


def test_criterion_08_support_from_below():
    """criterion 08 ball objective supported inside the weight band"""
    M = make_power(2.0)
    f = shifted_ball_objective(M, 1.0)
    oracle = GridOracle((1, 2, 3), step=0.01, radius=1.0)
    report = support_from_below(M, f, 1.0, 2.0, oracle)
    assert all(1.0 <= w <= 2.0 for w in (report.weights.tail, *report.weights.head))

    def dense_gap(rows, indices):
        return f.eval_dense(rows, indices) - g_eval_dense(
            M, report.weights, rows, indices
        )

    vals = oracle.evaluate(dense_gap)
    finite = np.isfinite(vals)
    assert finite.any()
    assert np.all(vals[finite] >= report.supported_value - 1e-9)
