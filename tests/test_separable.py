"""Differential tests of the separable grid sweeps.

A built-in objective's eval_grid is a separable form, f = finish(sum_j
t_j(x_j)).  From it GridOracle.separable folds each axis on which every
vector is a palindrome, a solve builds f only on the leading-axis slabs it
cannot rule out, and the support builds f - eps_hi * sigma in one pass.  The
reference is the whole-array path: the same objective with a plain eval_grid
that outer-sums every point and finishes the sums, as the engine did before
the form.  Reports, values and errors must be the same bit for bit.
"""

import dataclasses
import json
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
    SparseSequence,
    make_power,
    parse_family,
    perturb_minimize,
    support_from_below,
)
from orlicz import engine
from orlicz.objectives import parse_objective, squared_distance_objective


def whole_array(f):
    """f with a plain eval_grid: every point's sum finished, no form, no folding."""

    def grid(oracle):
        form = f.eval_grid.form(oracle)
        if form is None:
            return oracle.evaluate(f.eval_dense)
        terms, finish = form
        return finish(oracle.outer_sum(terms))

    return dataclasses.replace(f, eval_grid=grid)


def outcome(run):
    """A run's report as exact JSON (the sign of a zero and every bit of a
    float's repr kept), or its error's type and message."""
    try:
        rep = run()
    except (OrliczError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    return json.dumps(rep.to_dict(), sort_keys=True)


def _text(name, z, dims):
    if name != "sqdist":
        return name
    z = z[:dims]
    if not any(z):
        z = [0.25] + z[1:]
    return "sqdist:" + ",".join(f"{i}:{v!r}" for i, v in enumerate(z, 1) if v != 0.0)


_FAMILIES = st.sampled_from(["power:1", "power:1.5", "power:2", "power:3"])
_NAMES = st.sampled_from(["modular", "modular:0.6", "sqdist", "ball-quad", "ball-quad:0.8", "bump-inv", "bump-inv:0.7"])
# Multiples of 1/8 on grids of step 1/4 or 1/2 put z between grid points, so
# totals tie; zeros leave some axes of sqdist palindromic, so only they fold.
_Z = st.lists(st.sampled_from([0.0, 0.0, 0.125, -0.125, 0.25, -0.375, 0.5, 0.3, -0.55]), min_size=4, max_size=4)


@settings(max_examples=120, deadline=None)
@given(
    family=_FAMILIES,
    name=_NAMES,
    dims=st.integers(1, 4),
    step=st.sampled_from([0.5, 0.25, 0.2]),
    eps=st.floats(0.01, 1.0),
    z=_Z,
    mode=st.sampled_from(["minimize", "support"]),
)
# 1 coordinate: each slab is a single point; a tie between 0 and 0.25.
@example(family="power:2", name="sqdist", dims=1, step=0.25, eps=0.5, z=[0.125, 0, 0, 0], mode="minimize")
# Only axes 2 and 4 fold (z is zero there).
@example(family="power:1.5", name="sqdist", dims=4, step=0.5, eps=0.3, z=[0.3, 0.0, -0.375, 0.0], mode="support")
def test_separable_paths_match_the_whole_array_path(family, name, dims, step, eps, z, mode):
    M = parse_family(family)
    f = parse_objective(M, _text(name, z, dims))
    oracle = GridOracle(tuple(range(1, dims + 1)), step=step, radius=1.0)
    terms, finish = f.eval_grid.form(oracle)
    # The folded grid values are the unfolded sums finished, bit for bit.
    np.testing.assert_array_equal(f.eval_grid(oracle).view(np.int64), finish(oracle.outer_sum(terms)).view(np.int64))
    ref = whole_array(f)
    if mode == "minimize":
        got, want = (outcome(lambda g=g: perturb_minimize(M, g, eps, oracle)) for g in (f, ref))
    else:
        got, want = (outcome(lambda g=g: support_from_below(M, g, eps, 2.0 * eps, oracle)) for g in (f, ref))
    assert got == want


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_support_objective_folds_to_the_unfolded_sums(dims):
    # f1 = f - eps_hi * sigma, +inf outside the ball, from three sums (f's
    # terms are sigma's for the centred ball-quad, so two are one array).
    M = make_power(1.5)
    oracle = GridOracle(tuple(range(1, dims + 1)), step=0.1, radius=1.0)
    seen = []
    solve = engine.perturb_minimize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "perturb_minimize", lambda M, f1, *a, **k: seen.append(f1) or solve(M, f1, *a, **k))
        for f in (parse_objective(M, "ball-quad:0.8"), whole_array(parse_objective(M, "ball-quad:0.8"))):
            support_from_below(M, f, 0.5, 1.5, oracle)
    folded, unfolded = (f1.eval_grid(oracle) for f1 in seen)
    assert np.isinf(folded).any() and np.isfinite(folded).any()
    np.testing.assert_array_equal(folded.view(np.int64), unfolded.view(np.int64))


@pytest.mark.parametrize("text", ["modular", "sqdist:1:0.3,3:-0.125", "ball-quad:0.8", "bump-inv:0.7"])
@pytest.mark.parametrize("family", ["power:1.5", "power:3"])
def test_slab_floors_are_the_slab_minima_less_the_margin(family, text):
    # Every vector attains its minimum on the grid, so a slab's least sum is
    # a grid point's sum and its floor is that point's value, less the margin.
    M = parse_family(family)
    f = parse_objective(M, text)
    oracle = GridOracle((1, 2, 3), step=0.125, radius=1.0)
    floor = engine._Slabs(oracle, form=f.eval_grid.form(oracle)).floor
    least = f.eval_grid(oracle).reshape(len(oracle.axis), -1).min(axis=1)
    assert np.isinf(least).any() == text.startswith(("ball", "bump"))
    want = least.copy()
    finite = np.isfinite(least)
    want[finite] -= 1e-9 * (1.0 + np.abs(least[finite]))
    np.testing.assert_array_equal(floor, want)


def test_lost_terms_take_the_streamed_path():
    # (3e-7)^60 underflows: there is no form, and the solve reads the
    # streamed dense values, as the plain grid evaluator does.
    M = parse_family("power:60")
    f = parse_objective(M, "sqdist:1:3.53e-5")
    oracle = GridOracle((1,), step=1e-6, radius=1e-4)
    assert f.eval_grid.form(oracle) is None
    assert outcome(lambda: perturb_minimize(M, f, 0.1, oracle)) == outcome(
        lambda: perturb_minimize(M, whole_array(f), 0.1, oracle))


def _nan_at_half(M):
    def eval_nan(t):
        out = np.asarray(M.eval(t), dtype=float).copy()
        out[np.asarray(t) == 0.5] = math.nan
        return out

    return dataclasses.replace(M, eval=eval_nan)


@pytest.mark.parametrize("mode", ["minimize", "support"])
def test_nan_terms_raise_as_the_whole_array_path_does(mode):
    M = _nan_at_half(make_power(2.0))
    oracle = GridOracle((1, 2), step=0.5, radius=1.0)
    f = parse_objective(M, "modular")
    if mode == "minimize":
        runs = [lambda g=g: perturb_minimize(M, g, 0.1, oracle) for g in (f, whole_array(f))]
    else:
        runs = [lambda g=g: support_from_below(M, g, 0.5, 1.0, oracle) for g in (f, whole_array(f))]
    got, want = (outcome(run) for run in runs)
    assert got == want == "OrliczError: objective returned NaN on the grid"


def test_inf_on_the_whole_grid_is_not_proper_on_either_path():
    def form(oracle):
        return [np.full(len(oracle.axis), math.inf)] * len(oracle.indices), lambda sums: sums

    f = Objective(eval=lambda x: 1.0, domain_radius=1.0, lower_bound=0.0,
                  eval_grid=engine._SeparableGrid(form, None), coercive=True)
    oracle = GridOracle((1, 2, 3), step=0.25, radius=1.0)
    M = make_power(2.0)
    got, want = (outcome(lambda g=g: perturb_minimize(M, g, 0.1, oracle)) for g in (f, whole_array(f)))
    assert got == want == "NotProperError: objective is +inf on the whole grid"


def test_criterion_07_solve_allocates_well_under_one_grid_array():
    # 201^3 = 8,120,601 points: the solve builds f on the slabs its bounds
    # leave, here one slab of 40,401 points.
    M = make_power(2.0)
    z = SparseSequence.from_pairs([(1, 0.31), (2, 0.17), (3, 0.05)])
    oracle = GridOracle((1, 2, 3), step=0.01)
    f = squared_distance_objective(M, z)
    tracemalloc.start()
    try:
        rep = perturb_minimize(M, f, 0.1, oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.minimizer == z
    assert peak < 0.05 * 8 * oracle.points
