"""Differential tests of the objectives' grid evaluators.

A grid evaluator builds f over a GridOracle from one vector per axis; the
reference is the same objective with `eval_grid=None`, which the engine
evaluates through the streamed row path.  Both must pick the same weights
and stop in the same round unless rounding orders two tied points
differently, and their values may differ only by rounding of the summed
terms.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orlicz import (
    GridOracle,
    Objective,
    OrliczError,
    g_eval_dense,
    luxemburg_norm,
    modular_dense,
    parse_family,
    perturb_minimize,
    support_from_below,
)
from orlicz import engine
from orlicz.objectives import parse_objective


def _objective(family, name, dims, z):
    M = parse_family(family)
    z = [round(v, 3) for v in z[:dims]]
    z[0] = math.copysign(max(abs(z[0]), 0.05), z[0])
    text = "sqdist:" + ",".join(f"{i}:{v!r}" for i, v in enumerate(z, 1)) if name == "sqdist" else name
    return M, parse_objective(M, text)


_FAMILIES = st.sampled_from(["power:1", "power:1.5", "power:2", "power:3"])
_NAMES = st.sampled_from(["modular", "sqdist", "ball-quad", "bump-inv"])
_Z = st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3)


@settings(max_examples=80, deadline=None)
@given(family=_FAMILIES, name=_NAMES, dims=st.integers(1, 3), step=st.sampled_from([0.5, 0.25, 0.1, 0.05]), z=_Z)
def test_grid_values_match_the_dense_rows(family, name, dims, step, z):
    M, f = _objective(family, name, dims, z)
    oracle = GridOracle(tuple(range(1, dims + 1)), step=step, radius=1.0)
    got = f.eval_grid(oracle)
    want = oracle.evaluate(f.eval_dense)
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    got, want = got[fin], want[fin]
    if name == "modular":  # the same sums in the same order
        np.testing.assert_array_equal(got, want)
        return
    # The two norms agree to a few ulps (1e-14); f = n^2 or 1 + n^2 doubles
    # that at most, and the bump's exp(2/(1 - r^2) - 2) multiplies it by
    # d log f / d log r = 4r^2/(1 - r^2)^2 <= (2 + log f)^2.
    rtol = 1e-14 * ((2.0 + np.log(want)) ** 2 if name == "bump-inv" else 2.0)
    assert np.all(np.abs(got - want) <= rtol * np.abs(want) + 1e-300)


def test_eight_coordinate_sums_match_the_rows_to_rounding():
    # numpy's row sum goes pairwise from 8 columns on, while outer_sum
    # still adds left to right: the modular may move in the last bits.  Each
    # order errs by at most 7 ulps of the sum of 8 nonnegative terms.
    M = parse_family("power:1.5")
    f = parse_objective(M, "modular")
    oracle = GridOracle(tuple(range(1, 9)), step=0.5, radius=1.0)  # 5^8 points
    got = f.eval_grid(oracle)
    want = oracle.evaluate(f.eval_dense)
    assert np.all(np.abs(got - want) <= 7 * np.finfo(float).eps * want)


def test_support_calls_a_scalar_only_objective_inside_its_ball_only():
    # f raises off its ball; the support construction must mask first, as
    # it does point by point, and match the same f that reads +inf there.
    M = parse_family("power:2")
    oracle = GridOracle((1, 2), step=0.1, radius=1.0)
    calls = []

    def ball_quad(x, off):
        calls.append(x)
        n = luxemburg_norm(M, x)
        if n > 1.0 + 1e-6:
            return off()
        return 1.0 + n * n

    def refuse():
        raise ValueError("evaluated off the domain ball")

    strict = Objective(eval=lambda x: ball_quad(x, refuse), domain_radius=1.0, lower_bound=1.0)
    total = Objective(eval=lambda x: ball_quad(x, lambda: math.inf), domain_radius=1.0, lower_bound=1.0)
    rep = support_from_below(M, strict, 0.5, 1.0, oracle)
    assert calls and all(luxemburg_norm(M, x) <= 1.0 + 1e-6 for x in calls)
    assert rep == support_from_below(M, total, 0.5, 1.0, oracle)


def test_support_domain_mask_is_built_slab_by_slab(monkeypatch):
    # f streamed in chunks of 1,000 rows, the last one partial: f1 on the
    # grid must equal f - eps_hi * sigma, +inf where sigma(x/r) > 1, by rows.
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 1000)
    seen = []
    solve = engine.perturb_minimize
    monkeypatch.setattr(engine, "perturb_minimize", lambda M, f1, *a, **k: seen.append(f1) or solve(M, f1, *a, **k))
    M = parse_family("power:1.5")
    oracle = GridOracle((1, 2, 3), step=0.1, radius=1.0)  # 21 slabs of 441 points
    rows = oracle.grid()
    for text in ("sqdist:1:0.3,2:-0.2", "modular:0.7"):
        f = dataclasses.replace(parse_objective(M, text), eval_grid=None)
        support_from_below(M, f, 0.5, 1.5, oracle)
        want = f.eval_dense(rows, oracle.indices) - 1.5 * modular_dense(M, rows)
        want[modular_dense(M, rows / (f.domain_radius * (1.0 + 1e-9))) > 1.0] = math.inf
        assert np.isinf(want).any() and np.isfinite(want).any()
        np.testing.assert_array_equal(seen[-1].eval_grid(oracle), want)


class _RecordingOracle(GridOracle):
    """A GridOracle that records the flat index of the point each round chose."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chosen = []

    def sequence_at(self, row):
        self.chosen.append(int(row))
        return super().sequence_at(row)


def _solve(M, f, eps, oracle, mode):
    if mode == "minimize":
        return perturb_minimize(M, f, eps, oracle)
    return support_from_below(M, f, eps, 2.0 * eps, oracle)


@settings(max_examples=80, deadline=None)
@given(
    family=_FAMILIES,
    name=_NAMES,
    dims=st.integers(1, 3),
    step=st.sampled_from([0.5, 0.25, 0.1]),
    eps=st.floats(0.01, 1.0),
    z=_Z,
    mode=st.sampled_from(["minimize", "support"]),
)
# z is symmetric in coordinates 2 and 3, and the two f evaluators differ in
# the last bits: the grid path picks 3:0.5 and the streamed path 2:0.5.
@example(family="power:2", name="sqdist", dims=3, step=0.5, eps=0.5, z=[0.0, 0.1875, 0.1875], mode="support")
# The first round's points tie and are ordered differently, so the two
# heads differ in length, though both runs end at the origin.
@example(family="power:2", name="ball-quad", dims=3, step=0.25, eps=0.5, z=[0.0, 0.0, 0.0], mode="support")
def test_grid_evaluator_matches_streamed_path(family, name, dims, step, eps, z, mode):
    M, f = _objective(family, name, dims, z)
    assert f.eval_grid is not None

    def oracle():  # each solve records its own rounds' choices
        return _RecordingOracle(tuple(range(1, dims + 1)), step=step, radius=1.0)

    grid_oracle, ref_oracle = oracle(), oracle()
    idx = grid_oracle.indices

    rep = _solve(M, f, eps, grid_oracle, mode)
    ref = _solve(M, dataclasses.replace(f, eval_grid=None), eps, ref_oracle, mode)
    # A copy with only the scalar eval goes row by row; on up to 7 columns
    # eval is the dense row bit for bit, so the whole report is the same.
    scalar = Objective(eval=f.eval, domain_radius=f.domain_radius, lower_bound=f.lower_bound,
                       probe_points=f.probe_points, coercive=f.coercive)
    assert _solve(M, scalar, eps, oracle(), mode) == ref
    if mode == "support":
        rep, ref = rep.inner, ref.inner
    # Points whose totals tie up to rounding may be ordered either way by the
    # two evaluators in any round; then the weights built around each differ,
    # even where both runs end at the same point, and the tie is checked
    # below: each min_value within bound of the other's.
    if grid_oracle.chosen == ref_oracle.chosen:
        assert rep.weights == ref.weights
        assert rep.iterations == ref.iterations
    assert rep.converged == ref.converged

    # The terms the total at the minimizer sums, by the row path.
    row = np.array([rep.minimizer.value_at(i) for i in idx])[None, :]
    terms = [float(f.eval_dense(row, idx)[0]), float(g_eval_dense(M, rep.weights, row, idx)[0])]
    if mode == "support":
        terms.append(-2.0 * eps * float(modular_dense(M, row)[0]))
    bound = 1e-12 * sum(abs(t) for t in terms)
    assert abs(rep.min_value - ref.min_value) <= bound
    assert abs(sum(terms) - rep.min_value) <= bound


def test_range_guard_defers_subnormal_terms_to_the_streamed_path():
    # |x - z| >= 3e-7 on this grid, and (3e-7)^60 underflows to 0: summed
    # without the row-max scaling, every point near z would read f = 0.
    M = parse_family("power:60")
    f = parse_objective(M, "sqdist:1:3.53e-5")
    oracle = GridOracle((1,), step=1e-6, radius=1e-4)
    streamed = oracle.evaluate(f.eval_dense)
    assert streamed.min() > 0.0
    np.testing.assert_array_equal(f.eval_grid(oracle), streamed)
    rep = perturb_minimize(M, f, 0.1, oracle)
    assert rep == perturb_minimize(M, dataclasses.replace(f, eval_grid=None), 0.1, oracle)
    assert rep.minimizer.value_at(1) == pytest.approx(3.5e-5)


def test_solve_refuses_a_grid_evaluator_of_the_wrong_length():
    M = parse_family("power:2")
    oracle = GridOracle((1, 2), step=0.5, radius=1.0)
    for wrong in (lambda o: np.zeros(o.points - 1), lambda o: np.float64(1.0)):
        f = Objective(eval=lambda x: 0.0, domain_radius=1.0, lower_bound=0.0, eval_grid=wrong)
        with pytest.raises(OrliczError, match="grid evaluator returned"):
            perturb_minimize(M, f, 0.1, oracle)
        with pytest.raises(OrliczError, match="grid evaluator returned"):
            support_from_below(M, f, 0.1, 0.2, oracle)


def test_support_peak_memory_is_about_two_grid_arrays(monkeypatch):
    # 101^3 = 1,030,301 points.  f's values and sigma(x/r), then eps_hi *
    # sigma in the same array, are the two grid arrays of the set-up, and
    # the domain mask is one byte per point: about 2.15 arrays.
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 1 << 14)
    M = parse_family("power:2")
    oracle = GridOracle((1, 2, 3), step=0.02, radius=1.0)
    f = parse_objective(M, "ball-quad")
    tracemalloc.start()
    try:
        support_from_below(M, f, 1.0, 2.0, oracle, budget=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * oracle.points
