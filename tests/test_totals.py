"""Tests of the solve's totals: summed only where the minimizer can be.

Each round sums f + g_a only at the points that a reference total, f's
values and a per-slab bound leave, and checks them with a single np.argmin;
a round whose weights are all zero takes f's values as its totals.  The
reference kept here is the whole-grid round: a fresh weighted modular, then
`+ base`, then NaN, finiteness and lower-bound scans, np.argmin, and np.min
for the reported value.  Reports must equal it bit for bit.
"""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz import (
    GridOracle,
    NotProperError,
    Objective,
    OrliczError,
    PerturbationWeights,
    SolveReport,
    construct_local_perturbation,
    luxemburg_norm,
    luxemburg_norm_dense,
    make_power,
    nu_bound,
    parse_family,
    perturb_minimize,
    support_from_below,
)
from orlicz import engine
from orlicz.cli import main
from orlicz.objectives import modular_objective, parse_objective, squared_distance_objective
from orlicz.sequences import parse_sequence


def fresh_outer_sum(oracle, term):
    """The outer sum of one vector per axis, into a new array."""
    parts = [np.asarray(term(oracle.axis, i), dtype=float) for i in oracle.indices]
    return functools.reduce(np.add.outer, parts).ravel()


def reference_minimize(M, f, base, eps, oracle, budget=50, tail_tol=1e-3, move_tol=1e-6):
    """perturb_minimize with a fresh g_a per round and separate check scans."""

    def totals(w):
        m_axis = np.asarray(M.eval(np.abs(oracle.axis)), dtype=float)
        vals = fresh_outer_sum(oracle, lambda axis, i: w.weight_at(i) * m_axis)
        vals += base
        if np.isnan(vals).any():
            raise OrliczError("objective returned NaN on the grid")
        finite = np.isfinite(vals)
        if not finite.any():
            raise NotProperError("objective is +inf on the whole grid")
        if np.min(vals, where=finite, initial=math.inf) < f.lower_bound - 1e-9 * (1.0 + abs(f.lower_bound)):
            raise OrliczError(f"objective dipped below its declared lower bound {f.lower_bound}")
        return vals

    def tail_proxy(vals, level, head_len, cap=10000):
        tail_cols = [j for j, idx in enumerate(oracle.indices) if idx > head_len]
        if not tail_cols:
            return 0.0
        vmin = float(np.min(vals, where=np.isfinite(vals), initial=math.inf))
        rows = np.flatnonzero(vals <= vmin + level)[:cap]
        norms = luxemburg_norm_dense(M, oracle.rows_at(rows)[:, tail_cols])
        return float(norms.max()) if norms.size else 0.0

    weights = PerturbationWeights(head=(), tail=0.0 if f.coercive else eps / 4.0)
    vals = totals(weights)
    x_cur = oracle.sequence_at(int(np.argmin(vals)))
    converged, iterations, delta_n, proxy = False, 0, math.nan, math.inf
    for n in range(1, budget + 1):
        K_eff = max(f.domain_radius, luxemburg_norm(M, x_cur))
        a_n, delta_n = construct_local_perturbation(M, x_cur, K_eff, eps * 2.0 ** (-n - 2))
        weights = weights + a_n
        vals = totals(weights)
        x_next = oracle.sequence_at(int(np.argmin(vals)))
        moved = luxemburg_norm(M, x_next - x_cur)
        proxy = tail_proxy(vals, delta_n, len(weights.head))
        iterations = n
        x_cur = x_next
        if moved < move_tol and proxy < tail_tol:
            converged = True
            break
    return SolveReport(
        weights=weights,
        minimizer=x_cur,
        min_value=float(np.min(vals)),
        iterations=iterations,
        converged=converged,
        final_tail_index=len(weights.head),
        compactness_proxy=proxy,
        certificate_accuracy=delta_n,
        certificate_resolution=oracle.describe(),
    )


def reference_support_inner(M, f, delta_lo, eps_hi, oracle):
    """support_from_below's inner solve, with f - eps_hi * sigma and its mask built apart."""
    slack = f.domain_radius * (1.0 + 1e-9)
    sigma = fresh_outer_sum(oracle, lambda axis, i: M.eval(np.abs(axis)))
    shifted = engine._grid_values(f, oracle) - eps_hi * sigma
    shifted[fresh_outer_sum(oracle, lambda axis, i: M.eval(np.abs(axis / slack))) > 1.0] = math.inf
    f1 = dataclasses.replace(f, lower_bound=f.lower_bound - eps_hi * nu_bound(M, f.domain_radius), coercive=True)
    return reference_minimize(M, f1, shifted, eps_hi - delta_lo, oracle)


def _objective(M, name, z):
    """A built-in objective by name, or f = 1/2 ("constant"), or the squared
    distance to z less 0.1, floored at 0 ("plateau"), each with all three
    evaluators."""
    text = "sqdist:" + ",".join(f"{i}:{v!r}" for i, v in enumerate(z, 1))
    if name == "constant":
        return Objective(eval=lambda x: 0.5, domain_radius=1.0, lower_bound=0.5,
                         eval_dense=lambda rows, indices: np.full(len(rows), 0.5),
                         eval_grid=lambda o: np.full(o.points, 0.5))
    if name == "plateau":
        f = parse_objective(M, text)
        return dataclasses.replace(
            f,
            eval=lambda x: max(f.eval(x) - 0.1, 0.0),
            eval_dense=lambda rows, indices: np.maximum(f.eval_dense(rows, indices) - 0.1, 0.0),
            eval_grid=lambda o: np.maximum(f.eval_grid(o) - 0.1, 0.0),
            lower_bound=0.0,
        )
    return parse_objective(M, text if name == "sqdist" else name)


def _same(rep, ref):
    # json keeps the sign of a zero and every bit of a float's repr.
    assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(ref.to_dict(), sort_keys=True)
    assert rep.min_value == ref.min_value
    assert rep.minimizer == ref.minimizer
    assert rep.weights == ref.weights
    assert rep.iterations == ref.iterations


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["power:1.5", "power:2", "power:3"]),
    name=st.sampled_from(["modular", "sqdist", "ball-quad", "bump-inv", "constant", "plateau"]),
    dims=st.integers(1, 3),
    step=st.sampled_from([0.5, 0.25, 0.1]),
    eps=st.floats(0.01, 1.0),
    z=st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3),
    coercive=st.booleans(),
    cut=st.one_of(st.none(), st.floats(0.3, 2.0)),
    path=st.sampled_from(["grid", "dense"]),
    mode=st.sampled_from(["minimize", "support"]),
)
def test_reports_equal_the_fresh_array_rounds(family, name, dims, step, eps, z, coercive, cut, path, mode):
    M = parse_family(family)
    z = [round(v, 3) for v in z[:dims]]
    z[0] = math.copysign(max(abs(z[0]), 0.05), z[0])
    f = dataclasses.replace(_objective(M, name, z), coercive=coercive)
    oracle = GridOracle(tuple(range(1, dims + 1)), step=step, radius=1.0)
    if cut is not None:  # +inf where the l1 norm of the point passes cut
        grid_fn = f.eval_grid
        f = dataclasses.replace(f, eval_grid=lambda o: np.where(
            fresh_outer_sum(o, lambda axis, i: np.abs(axis)) > cut, math.inf, grid_fn(o)))
    if path == "dense":
        f = dataclasses.replace(f, eval_grid=None)

    if mode == "minimize":
        rep = perturb_minimize(M, f, eps, oracle)
        ref = reference_minimize(M, f, engine._grid_values(f, oracle), eps, oracle)
    else:
        rep = support_from_below(M, f, eps, 2.0 * eps, oracle).inner
        ref = reference_support_inner(M, f, eps, 2.0 * eps, oracle)
    _same(rep, ref)


def test_the_tail_proxy_takes_the_first_10000_near_minimizers():
    # f = 1/2 on a fine grid about 0: in round 1, 17,941 of the 68,921
    # points lie within the round's level of the lowest total, and the
    # proxy's cap keeps the first 10,000 of them in flat order.
    M = make_power(2.0)
    f = _objective(M, "constant", [])
    oracle = GridOracle((1, 2, 3), step=8e-5, radius=1.6e-3)
    _same(perturb_minimize(M, f, 0.1, oracle), reference_minimize(M, f, f.eval_grid(oracle), 0.1, oracle))


def _one_point(fill, at, value):
    """A grid evaluator: fill everywhere, value at the flat index at(oracle)."""

    def grid(oracle):
        vals = np.full(oracle.points, fill)
        vals[at(oracle)] = value
        return vals

    return grid


def _origin(oracle):
    """The flat index of the zero row, inside every domain ball."""
    return oracle.points // 2


def _far_corner(oracle):
    """The flat index of the all-radius row: outside the unit ball, far from every minimizer."""
    return oracle.points - 1


# (grid values, error, message, whether support raises too) that the totals
# check must refuse.  At the far corner no round sums f + g_a, and support's
# domain mask covers the bad value.
_BAD_GRIDS = [
    (_one_point(1.0, _origin, math.nan), OrliczError, "NaN on the grid", True),
    (_one_point(math.inf, _origin, math.inf), NotProperError, r"\+inf on the whole grid", True),
    (_one_point(1.0, _origin, -1e6), OrliczError, "below its declared lower bound", True),
    (_one_point(1.0, _far_corner, math.nan), OrliczError, "NaN on the grid", False),
]


@pytest.mark.parametrize("grid, error, message, support_raises", _BAD_GRIDS, ids=["nan", "all-inf", "dip", "far-nan"])
@pytest.mark.parametrize("coercive", [True, False])
def test_totals_checks_through_a_grid_evaluator(grid, error, message, support_raises, coercive):
    M = make_power(2.0)
    oracle = GridOracle((1, 2), step=0.25, radius=1.0)
    f = Objective(eval=lambda x: 1.0, domain_radius=1.0, lower_bound=0.0, eval_grid=grid, coercive=coercive)
    with pytest.raises(error, match=message):
        perturb_minimize(M, f, 0.1, oracle)
    if support_raises:
        with pytest.raises(error, match=message):
            support_from_below(M, f, 0.5, 1.0, oracle)
    else:
        clean = dataclasses.replace(f, eval_grid=_one_point(1.0, _far_corner, 1.0))
        assert support_from_below(M, f, 0.5, 1.0, oracle) == support_from_below(M, clean, 0.5, 1.0, oracle)


_NAN = "NaN on the grid"
_DIP = "below its declared lower bound"


@pytest.mark.parametrize("at, message", [
    ([(2, 0)], _NAN), ([(0, 2)], _NAN), ([(4, 4)], _NAN), ([(2, 2)], _DIP), ([(1, 2)], _DIP),
    ([(1, 2), (4, 1)], _NAN),  # f's first argmin dips; the NaN total is in a slab no round sums
], ids=str)
def test_overflowing_g_against_minus_inf_f_raises_as_the_whole_grid_does(at, message):
    # M(1000) = 1000^110 = +inf, so round 0's g_a = eps/4 * sigma is +inf on
    # the grid's outer rows, and f = -inf at the points at: +inf + -inf is a
    # NaN total on an outer row, and -inf (a dip) inside (M(500) is finite).
    M = parse_family("power:110")
    oracle = GridOracle((1, 2), step=500.0, radius=1000.0)
    flat = np.ravel_multi_index(tuple(zip(*at)), (5, 5))
    f = Objective(eval=lambda x: 1.0, domain_radius=1.0, lower_bound=0.0,
                  eval_grid=_one_point(1.0, lambda o: flat, -math.inf))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OrliczError, match=message):
            perturb_minimize(M, f, 0.1, oracle)


@pytest.mark.parametrize("solve", ["minimize", "support"])
def test_minus_inf_fails_the_lower_bound_on_either_evaluator(solve):
    # min(where=finite) skipped -inf: the solve reported min_value = -inf.
    M = make_power(2.0)
    oracle = GridOracle((1, 2), step=0.25, radius=1.0)

    def dense(rows, indices):
        return np.where(np.all(rows == 0.0, axis=1), -math.inf, 1.0)

    for f in (
        Objective(eval=lambda x: 1.0, domain_radius=1.0, lower_bound=0.0, eval_grid=_one_point(1.0, _origin, -math.inf)),
        Objective(eval=lambda x: 1.0, domain_radius=1.0, lower_bound=0.0, eval_dense=dense),
    ):
        with pytest.raises(OrliczError, match="below its declared lower bound"):
            if solve == "minimize":
                perturb_minimize(M, f, 0.1, oracle)
            else:
                support_from_below(M, f, 0.5, 1.0, oracle)


@pytest.mark.parametrize("text", ["modular", "sqdist:1:0.5"])
def test_overflowing_axis_term_is_no_nan_in_round_zero(text):
    # M(1000) = 1000^110 overflows to +inf, and round 0 of a coercive
    # objective has zero weights: 0 * inf read as NaN on the grid.
    M = parse_family("power:110")
    oracle = GridOracle((1, 2), step=500.0, radius=1000.0)
    f = modular_objective(M) if text == "modular" else squared_distance_objective(M, parse_sequence("1:0.5"))
    with np.errstate(over="ignore"):
        rep = perturb_minimize(M, f, 0.1, oracle)
    assert f.coercive and math.isfinite(rep.min_value)
    assert rep.minimizer.value_at(1) in (0.0, 0.5) and rep.minimizer.value_at(2) == 0.0


@pytest.mark.parametrize("text, min_value", [("modular", 0.0), ("sqdist:1:0.5", 0.25)])
def test_overflowing_axis_term_solves_from_the_cli(capsys, text, min_value):
    # M(1000) = inf is the intended value of the grid-axis term, so neither
    # the modular's eval_grid nor the weighted modular may warn about it; the
    # payload is the one the run gave while it still warned.
    argv = ["solve", "--family", "power:110", "--objective", text,
            "--grid-dims", "2", "--grid-step", "500", "--grid-radius", "1000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert json.loads(out)["solve"] == {
        "certificate_accuracy": 5.168833871508383e-268,
        "certificate_resolution": "grid(indices=[1, 2], step=500, radius=1000, points=25)",
        "compactness_proxy": 0.0,
        "converged": True,
        "final_tail_index": 0,
        "iterations": 1,
        "min_value": min_value,
        "minimizer": "",
        "weights": {"head": [], "signed": False, "tail": 0.0125},
    }


def test_overflowing_axis_term_supports_silently_under_warnings_as_errors():
    # support's shifted objective is f - eps_hi * sigma, +inf outside the
    # domain ball; there M(1000) = inf made f and sigma both inf, and inf - inf
    # warned before the mask set it.  The payload is the one the run gave
    # while it still warned.
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("ORLICZ_SEED", None)
    argv = ["support", "--family", "power:110", "--objective", "modular",
            "--grid-dims", "2", "--grid-step", "500", "--grid-radius", "1000"]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "orlicz.cli", *argv], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    weights = {"head": [], "signed": False}
    assert json.loads(proc.stdout)["support"] == {
        "inner": {
            "certificate_accuracy": 1.1305535631739692e-167,
            "certificate_resolution": "grid(indices=[1, 2], step=500, radius=1000, points=25)",
            "compactness_proxy": 0.0,
            "converged": True,
            "final_tail_index": 0,
            "iterations": 1,
            "min_value": 0.0,
            "minimizer": "",
            "weights": {**weights, "tail": 0.125},
        },
        "minimizer": "",
        "supported_value": 0.0,
        "weights": {**weights, "tail": 1.875},
    }


@pytest.mark.parametrize("coercive", [True, False])
def test_solves_leave_the_grid_evaluator_array_as_it_was(coercive):
    # A user eval_grid may return an array that it keeps and reads again.
    M = make_power(2.0)
    oracle = GridOracle((1, 2, 3), step=0.25, radius=1.0)
    f = parse_objective(M, "sqdist:1:0.3,2:-0.2")
    kept = f.eval_grid(oracle)
    copy = kept.copy()
    g = dataclasses.replace(f, eval_grid=lambda o: kept, coercive=coercive)
    perturb_minimize(M, g, 0.1, oracle)
    support_from_below(M, g, 0.5, 1.0, oracle)
    np.testing.assert_array_equal(kept, copy)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_outer_sum_and_sum_at_equal_the_fresh_outer_add(dims):
    oracle = GridOracle(tuple(range(1, dims + 1)), step=0.25, radius=1.0)
    M = make_power(1.5)
    a = PerturbationWeights(head=(0.3, 0.1), tail=0.7)
    want = fresh_outer_sum(oracle, lambda axis, i: a.weight_at(i) * M.eval(np.abs(axis)))
    parts = [a.weight_at(i) * M.eval(np.abs(oracle.axis)) for i in oracle.indices]
    np.testing.assert_array_equal(oracle.outer_sum(parts), want)
    np.testing.assert_array_equal(oracle.sum_at(parts, np.arange(oracle.points)), want)


@pytest.mark.parametrize("dims", range(1, 9))
def test_outer_sum_equals_the_reduced_outer_add_with_special_terms(dims):
    # Each row of the last axis takes that axis's vector plus a column of
    # the other axes' sums: the same sums as the outer add, bit for bit,
    # with +-inf and -0.0 terms; NaN lands at the same points.
    oracle = GridOracle(tuple(range(1, dims + 1)), step=0.5 if dims <= 5 else 1.0, radius=1.0)
    rng = np.random.default_rng(dims)
    specials = np.array([math.inf, -math.inf, -0.0, 0.0, math.nan])

    def term(axis, i):
        out = rng.standard_normal(len(axis))
        pick = rng.random(len(axis)) < 0.4
        out[pick] = rng.choice(specials, size=np.count_nonzero(pick))
        return out

    parts = [term(oracle.axis, i) for i in oracle.indices]
    with np.errstate(invalid="ignore"):  # inf + -inf
        want = functools.reduce(np.add.outer, parts).ravel()
        got = oracle.outer_sum(parts)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    np.testing.assert_array_equal(got[keep].view(np.int64), want[keep].view(np.int64))
