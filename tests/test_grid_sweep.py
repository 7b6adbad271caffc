"""Differential tests of the engine's grid sweep.

The sweep evaluates f once per solve over flat-index chunks and builds g_a
from per-axis vectors.  The reference kept here is the loop it replaced:
every round rebuilds f + g_a over the materialized grid with
`g_eval_dense`.  Both must pick the same weights and stop in the same round.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz import (
    DomainError,
    GridOracle,
    Objective,
    OrliczError,
    PerturbationWeights,
    SparseSequence,
    construct_local_perturbation,
    g_eval_dense,
    luxemburg_norm,
    luxemburg_norm_dense,
    modular_dense,
    modular_objective,
    parse_family,
    perturb_minimize,
    support_from_below,
)
from orlicz import engine
from orlicz.objectives import parse_objective


def reference_minimize(M, f_dense, coercive, domain_radius, eps, oracle,
                       budget=50, tail_tol=1e-3, move_tol=1e-6):
    """The pre-streaming perturb_minimize loop over oracle.grid()."""
    pts = oracle.grid()
    idx = oracle.indices

    def totals(w):
        return np.asarray(f_dense(pts, idx), dtype=float) + g_eval_dense(M, w, pts, idx)

    def point(k):
        return SparseSequence.from_pairs((i, v) for i, v in zip(idx, pts[k]) if v != 0.0)

    def tail_proxy(vals, level, head_len, cap=10000):
        tail_cols = [j for j, i in enumerate(idx) if i > head_len]
        if not tail_cols:
            return 0.0
        vmin = float(np.min(vals[np.isfinite(vals)]))
        rows = np.nonzero(vals <= vmin + level)[0][:cap]
        norms = luxemburg_norm_dense(M, pts[rows][:, tail_cols])
        return float(norms.max()) if norms.size else 0.0

    weights = PerturbationWeights(tail=0.0 if coercive else eps / 4.0)
    vals = totals(weights)
    x_cur = point(int(np.argmin(vals)))
    converged = False
    iterations = 0
    for n in range(1, budget + 1):
        K_eff = max(domain_radius, luxemburg_norm(M, x_cur))
        a_n, delta_n = construct_local_perturbation(M, x_cur, K_eff, eps * 2.0 ** (-n - 2))
        weights = weights + a_n
        vals = totals(weights)
        x_next = point(int(np.argmin(vals)))
        moved = luxemburg_norm(M, x_next - x_cur)
        proxy = tail_proxy(vals, delta_n, len(weights.head))
        iterations = n
        x_cur = x_next
        if moved < move_tol and proxy < tail_tol:
            converged = True
            break
    return weights, vals, iterations, converged


def shifted_dense(M, f, eps_hi):
    """f - eps_hi * sigma, +inf off the domain ball, as support_from_below builds it."""
    slack = f.domain_radius * (1.0 + 1e-9)

    def dense(rows, indices):
        out = f.eval_dense(rows, indices) - eps_hi * modular_dense(M, rows)
        out[modular_dense(M, rows / slack) > 1.0] = math.inf
        return out

    return dense


def _no_grid(self):
    raise AssertionError("the sweep materialized the grid")


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["power:2", "power:1.5"]),
    name=st.sampled_from(["modular", "sqdist", "ball-quad", "bump-inv"]),
    dims=st.integers(1, 3),
    step=st.sampled_from([0.5, 0.25, 0.1]),
    eps=st.floats(0.01, 1.0),
    z=st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3),
    mode=st.sampled_from(["minimize", "support"]),
)
def test_sweep_matches_materialized_reference(family, name, dims, step, eps, z, mode):
    M = parse_family(family)
    z = [round(v, 3) for v in z[:dims]]
    z[0] = math.copysign(max(abs(z[0]), 0.05), z[0])
    text = "sqdist:" + ",".join(f"{i}:{v!r}" for i, v in enumerate(z, 1)) if name == "sqdist" else name
    f = parse_objective(M, text)
    oracle = GridOracle(tuple(range(1, dims + 1)), step=step, radius=1.0)
    idx = oracle.indices

    if mode == "minimize":
        ref_dense, coercive, budget_eps = f.eval_dense, f.coercive, eps
    else:
        ref_dense, coercive, budget_eps = shifted_dense(M, f, 2.0 * eps), True, eps
    ref_w, ref_vals, ref_iters, ref_conv = reference_minimize(
        M, ref_dense, coercive, f.domain_radius, budget_eps, oracle
    )

    rows_seen = []

    def counting(rows, indices):
        rows_seen.append(len(rows))
        return f.eval_dense(rows, indices)

    fc = dataclasses.replace(f, eval_dense=counting, eval_grid=None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GridOracle, "grid", _no_grid)
        if mode == "minimize":
            rep = perturb_minimize(M, fc, eps, oracle)
        else:
            rep = support_from_below(M, fc, eps, 2.0 * eps, oracle).inner
    assert sum(rows_seen) == oracle.points

    assert rep.weights == ref_w
    assert rep.iterations == ref_iters
    assert rep.converged == ref_conv
    ref_min = float(ref_vals.min())
    assert rep.min_value == pytest.approx(ref_min, rel=1e-12, abs=1e-300)
    row = np.array([rep.minimizer.value_at(i) for i in idx])[None, :]
    at_min = float(ref_dense(row, idx)[0] + g_eval_dense(M, ref_w, row, idx)[0])
    assert abs(at_min - ref_min) <= 1e-12 * (1.0 + abs(ref_min))


def test_g_terms_summed_at_points_match_dense_g_in_flat_order():
    M = parse_family("power:1.5")
    oracle = GridOracle((2, 5, 7), step=0.25, radius=1.0)
    a = PerturbationWeights(head=(0.3, 0.1, 0.7, 0.2, 0.05, 0.9), tail=0.4)
    want = g_eval_dense(M, a, oracle.grid(), oracle.indices)
    parts = [a.weight_at(i) * M.eval(np.abs(oracle.axis)) for i in oracle.indices]
    np.testing.assert_allclose(oracle.sum_at(parts, np.arange(oracle.points)), want, rtol=1e-14)
    for k in (0, 17, oracle.points - 1):
        assert oracle.sequence_at(k) == SparseSequence.from_pairs(
            (i, v) for i, v in zip(oracle.indices, oracle.grid()[k]) if v != 0.0
        )


def test_scalar_fallback_refused_above_its_cap():
    M = parse_family("power:2")
    oracle = GridOracle((1, 2, 3), step=0.02, radius=1.0)  # 101^3 points
    calls = []
    f = Objective(eval=lambda x: calls.append(x) or 0.0, domain_radius=1.0, lower_bound=0.0)
    with pytest.raises(DomainError, match="fallback"):
        perturb_minimize(M, f, 0.1, oracle)
    with pytest.raises(DomainError, match="fallback"):
        support_from_below(M, f, 0.1, 0.2, oracle)
    assert calls == list(f.probe_points) * 2  # assert_proper's probes, no grid point



def test_evaluate_refuses_a_dense_evaluator_of_the_wrong_length():
    oracle = GridOracle((1, 2), step=0.5, radius=1.0)
    for wrong in (lambda rows, idx: np.zeros(len(rows) + 1), lambda rows, idx: np.float64(1.0)):
        with pytest.raises(OrliczError, match="dense evaluator returned"):
            oracle.evaluate(wrong)


def test_single_chunk_sweep_returns_the_evaluator_array():
    oracle = GridOracle((1, 2), step=0.5, radius=1.0)
    returned = []

    def dense(rows, idx):
        returned.append(np.asarray(rows, dtype=float).sum(axis=1))
        return returned[-1]

    vals = oracle.evaluate(dense)
    assert len(returned) == 1 and vals is returned[0] and vals.dtype == np.float64


def test_sweep_peak_memory_is_about_two_grid_arrays(monkeypatch):
    # 101^3 = 1,030,301 points.  Small chunks keep the streamed temporaries
    # out of the figure, which is then the cached f, the solve's totals
    # buffer and the tail proxy's boolean mask: about 2.13 arrays of 8 bytes
    # per point.
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 1 << 14)
    M = parse_family("power:2")
    oracle = GridOracle((1, 2, 3), step=0.02, radius=1.0)
    tracemalloc.start()
    try:
        perturb_minimize(M, modular_objective(M), 0.1, oracle, budget=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * oracle.points


def test_scalar_fallback_converts_a_few_rows_at_a_time():
    # Converting the whole chunk to sparse sequences before the first f.eval
    # peaked at about 62 x 8N bytes on this grid.
    f = Objective(eval=lambda x: float(len(x.entries)), domain_radius=1.0, lower_bound=0.0)
    oracle = GridOracle((1, 2, 3), step=0.1, radius=1.0)
    tracemalloc.start()
    try:
        vals = engine._grid_values(f, oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(vals, np.count_nonzero(oracle.grid(), axis=1))
    assert peak < 20 * 8 * oracle.points
