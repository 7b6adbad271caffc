"""The dense diagnostics against the per-point path they replace.

The reference below is the earlier implementation, kept here: the sampler
draw converted to sparse sequences (random points, then zero, then the
extra points), f.eval called point by point, and every covering or
diameter estimate built from the chosen sequences by `ref_block`, with a
norm solve for every pair and every (point, center).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz import (
    BallSampler,
    GridSampler,
    Objective,
    SparseSequence,
    intersection_lemma_check,
    kuratowski_estimate,
    luxemburg_norm_dense,
    make_non_delta2,
    make_power,
    modular,
    non_delta2_witness,
    parse_objective,
    sublevel_sample,
    wpmc_diagnose,
)
from orlicz.wellposed import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_WPMC,
    VERDICT_WPMC,
    IntersectionCheck,
    SublevelSample,
    WellPosednessReport,
    _dense_block,
    _diam_estimate,
)

SEEDS = range(20)
LEVELS = (0.25, 0.015625)
CENTERS = 2
COUNT = 8


def ref_points(sampler, M, radius):
    rng = np.random.default_rng(sampler.seed)
    rows = np.zeros((sampler.count, sampler.index_range))
    for i in range(sampler.count):
        support = rng.choice(sampler.index_range, size=sampler.support_size, replace=False)
        rows[i, support] = rng.standard_normal(sampler.support_size)
    norms = luxemburg_norm_dense(M, rows)
    norms[norms == 0.0] = 1.0
    radii = radius * 10.0 ** (-sampler.decades * rng.uniform(size=sampler.count))
    rows *= (radii / norms)[:, None]
    pts = [
        SparseSequence.from_pairs((j + 1, v) for j, v in enumerate(row) if v != 0.0)
        for row in rows
    ]
    if sampler.include_zero:
        pts.append(SparseSequence())
    pts.extend(sampler.extra)
    return pts


def ref_block(points):
    span = max((p.max_index for p in points), default=0)
    rows = np.zeros((len(points), max(span, 1)))
    for i, p in enumerate(points):
        for idx, val in p.entries:
            rows[i, idx - 1] = val
    return rows


def ref_kuratowski(points, M, max_centers):
    rows = ref_block(points)
    dist = luxemburg_norm_dense(M, rows - rows[0])
    for _ in range(1, min(max_centers, len(points))):
        far = int(np.argmax(dist))
        if dist[far] == 0.0:
            break
        dist = np.minimum(dist, luxemburg_norm_dense(M, rows - rows[far]))
    return float(dist.max())


def ref_diam(points, M, cap=200):
    if len(points) < 2:
        return 0.0
    if len(points) > cap:
        keep = np.rint(np.linspace(0, len(points) - 1, cap)).astype(int)
        points = [points[i] for i in keep]
    rows = ref_block(points)
    ii, jj = np.triu_indices(len(rows), k=1)
    return float(luxemburg_norm_dense(M, rows[ii] - rows[jj]).max())


def ref_sublevel(pts, values, eps, sampler):
    inf_sample = min(v for v in values if math.isfinite(v))
    chosen = tuple(p for p, v in zip(pts, values) if v <= inf_sample + eps)
    return SublevelSample(eps, chosen, inf_sample, sampler.describe())


def ref_wpmc(M, pts, values, levels, sampler, max_centers=8, tol=1e-2, slack=0.1):
    inf_sample = min(v for v in values if math.isfinite(v))
    alphas, diams = [], []
    for level in levels:
        chosen = [p for p, v in zip(pts, values) if v <= inf_sample + level]
        alphas.append(ref_kuratowski(chosen, M, max_centers))
        diams.append(ref_diam(chosen, M))

    def weakly_decreasing(seq):
        return all(b <= a * (1.0 + slack) + 1e-12 for a, b in zip(seq, seq[1:]))

    if alphas[-1] < tol and diams[-1] < tol and weakly_decreasing(alphas) and weakly_decreasing(diams):
        verdict = VERDICT_WPMC
    elif alphas[-1] > 10.0 * tol or diams[-1] > 10.0 * tol:
        verdict = VERDICT_NOT_WPMC
    else:
        verdict = VERDICT_INCONCLUSIVE
    return WellPosednessReport(levels, tuple(alphas), tuple(diams), verdict, sampler.describe())


def ref_intersection(fv, gv, delta, fp_slack=1e-9):
    fv, gv = np.array(fv), np.array(gv)
    both = fv + gv
    finite = np.isfinite(fv) & np.isfinite(gv)
    inf_f, inf_g, inf_fg = fv[finite].min(), gv[finite].min(), both[finite].min()
    if not ((fv <= inf_f + delta) & (gv <= inf_g + delta)).any():
        return IntersectionCheck(True, False, 0)
    candidates = both <= inf_fg + delta
    contained = (fv <= inf_f + 3.0 * delta + fp_slack) & (gv <= inf_g + 3.0 * delta + fp_slack)
    return IntersectionCheck(not bool((candidates & ~contained).any()), True, int(candidates.sum()))


def _witnesses():
    M = make_non_delta2()
    return tuple(non_delta2_witness(M, k)[0] for k in (5, 10, 20, 50))


FAMILIES = {
    "power:2": (make_power(2.0), ()),
    "power:1.5": (make_power(1.5), ()),
    "non-delta2": (make_non_delta2(), _witnesses()),
}


def _objectives(M):
    z = SparseSequence.from_pairs([(1, 0.3), (2, -0.2)])
    return {
        "modular": parse_objective(M, "modular"),
        "sqdist": parse_objective(M, "sqdist:1:0.3,2:-0.2"),
        "ball-quad": parse_objective(M, "ball-quad"),
        "bump-inv": parse_objective(M, "bump-inv"),
        "scalar-only": Objective(eval=lambda x: modular(M, x - z), domain_radius=1.0, lower_bound=0.0),
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_ball_sampler_points_are_the_reference_conversion(family):
    M, extra = FAMILIES[family]
    for seed in SEEDS:
        sampler = BallSampler(seed=seed, count=COUNT, extra=extra)
        pts = sampler.points(M, 1.0)
        assert pts == ref_points(sampler, M, 1.0)
        assert pts[COUNT] == SparseSequence()
        assert tuple(pts[COUNT + 1 :]) == extra
        rows, indices = sampler.dense_points(M, 1.0)
        assert rows.shape == (COUNT + 1 + len(extra), len(indices))
        assert indices == tuple(range(1, max([40] + [x.max_index for x in extra]) + 1))


def _check_against_reference(M, objectives, names, sampler):
    pts = ref_points(sampler, M, 1.0)
    values = {name: [float(objectives[name].eval(p)) for p in pts] for name in {*names, "modular"}}
    for name in names:
        f = objectives[name]
        got = sublevel_sample(M, f, 1.0, 0.0625, sampler)
        want = ref_sublevel(pts, values[name], 0.0625, sampler)
        assert got.points == want.points, (name, sampler)
        assert (got.level, got.sampler_spec) == (want.level, want.sampler_spec)
        # Dense and scalar evaluators may round the infimum differently.
        assert got.inf_sample == pytest.approx(want.inf_sample, rel=1e-13, abs=1e-300)
        got = wpmc_diagnose(M, f, 1.0, LEVELS, sampler, max_centers=CENTERS)
        assert got == ref_wpmc(M, pts, values[name], LEVELS, sampler, CENTERS), (name, sampler)
        got = intersection_lemma_check(M, f, objectives["modular"], 1.0, 0.05, sampler)
        assert got == ref_intersection(values[name], values["modular"], 0.05), (name, sampler)


@pytest.mark.parametrize("family", FAMILIES)
def test_dense_diagnostics_match_the_per_point_path(family):
    M, extra = FAMILIES[family]
    objectives = _objectives(M)
    names = list(objectives)
    for seed in SEEDS:
        # A non-delta2 norm is a Newton solve of about 1.4 ms a call, so
        # there the objectives take turns: each still meets four seeds.
        turn = names if family != "non-delta2" else [names[seed % len(names)]]
        sampler = BallSampler(seed=seed, count=COUNT, decades=4.0, extra=extra)
        _check_against_reference(M, objectives, turn, sampler)


def test_dense_diagnostics_match_past_the_diameter_cap():
    # More than 200 chosen points: the diameter subsample is cut to its own
    # last nonzero column, as the reference cuts it.
    M = make_power(1.5)
    objectives = {"modular": parse_objective(M, "modular")}
    sampler = BallSampler(seed=0, count=300, decades=4.0, extra=_witnesses())
    _check_against_reference(M, objectives, ["modular"], sampler)


def test_diameter_subsample_is_cut_to_its_own_width():
    # Coordinate 9 appears only in a point that the 200-point subsample
    # drops, so the subsample's block is 7 columns wide, as the reference
    # builds it; a 9-column block sums the rows in another order.
    M = make_power(1.5)
    rng = np.random.default_rng(3)
    pts = [SparseSequence.from_values(rng.standard_normal(7)) for _ in range(300)]
    pts[1] = SparseSequence.from_pairs([(9, 0.5)])
    assert _diam_estimate(_dense_block(pts), M) == ref_diam(pts, M)


def test_scalar_only_objective_on_a_grid_sampler_with_gaps():
    # A GridSampler on coordinates (1, 3): the block holds coordinate 2 as a
    # zero column, and the scalar objective sees the same sequences as before.
    M = make_power(2.0)
    sampler = GridSampler(indices=(1, 3), step=0.25, radius=1.0)
    f = Objective(
        eval=lambda x: (x.value_at(1) - 0.5) ** 2 + x.value_at(3) ** 2,
        domain_radius=1.0, lower_bound=0.0,
    )
    axis = np.arange(-4, 5) * 0.25
    pts = [SparseSequence.from_pairs([(1, a), (3, b)]) for a in axis for b in axis]
    assert sampler.points(M) == pts
    values = [f.eval(p) for p in pts]
    assert sublevel_sample(M, f, 1.0, 0.1, sampler) == ref_sublevel(pts, values, 0.1, sampler)
    assert wpmc_diagnose(M, f, 1.0, LEVELS, sampler) == ref_wpmc(M, pts, values, LEVELS, sampler)


def test_objective_whose_dense_evaluator_refuses_the_block_falls_back():
    # z lies beyond the sampler's indices, which the dense sqdist refuses;
    # the diagnostics then evaluate it point by point, as before.
    M = make_power(2.0)
    f = parse_objective(M, "sqdist:50:0.3")
    sampler = BallSampler(seed=3, count=COUNT)
    pts = ref_points(sampler, M, 1.0)
    values = [f.eval(p) for p in pts]
    assert sublevel_sample(M, f, 1.0, 0.01, sampler) == ref_sublevel(pts, values, 0.01, sampler)
    assert wpmc_diagnose(M, f, 1.0, LEVELS, sampler) == ref_wpmc(M, pts, values, LEVELS, sampler)


# -- the pruned covering radius and diameter against every pairwise solve ----

PRUNE_FAMILIES = {
    "power:1": make_power(1.0),
    "power:1.5": make_power(1.5),
    "power:2": make_power(2.0),
    "non-delta2": make_non_delta2(),
    # Neither closed form nor derivative: the norm kernel bisects.
    "non-delta2/bisect": dataclasses.replace(make_non_delta2(), power=None, deriv1=None),
    "power:1.5/bisect": dataclasses.replace(make_power(1.5), power=None, deriv1=None),
}


def _assert_pruned_match_reference(pts, M):
    rows = ref_block(pts)
    assert _diam_estimate(rows, M) == ref_diam(pts, M)
    for centers in (1, 2, 3, 8):
        assert kuratowski_estimate(pts, M, centers) == ref_kuratowski(pts, M, centers)


# Few distinct magnitudes, so that duplicate rows and tied norms come up often.
_entries = st.one_of(
    st.just(0.0),
    st.sampled_from((0.25, -0.25, 0.5, -0.5, 1.0)),
    st.floats(min_value=1e-3, max_value=2.0).flatmap(lambda v: st.sampled_from((v, -v))),
)


@st.composite
def _point_lists(draw):
    width = draw(st.integers(min_value=1, max_value=9))
    pts = draw(st.lists(
        st.lists(_entries, min_size=width, max_size=width), min_size=1, max_size=10,
    ))
    pts += [pts[i] for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3))]
    return [SparseSequence.from_values(p) for p in pts]


@pytest.mark.parametrize("family", PRUNE_FAMILIES)
@given(pts=_point_lists())
@settings(max_examples=60, deadline=None)
def test_pruned_estimates_equal_every_pairwise_solve(family, pts):
    _assert_pruned_match_reference(pts, PRUNE_FAMILIES[family])


def _special_cases():
    rng = np.random.default_rng(11)
    e = [SparseSequence.from_pairs([(j, 1.0)]) for j in (1, 2, 3)]
    x = SparseSequence.from_values(rng.standard_normal(5))
    wide = [SparseSequence.from_values(v) for v in rng.standard_normal((240, 6)) * 0.1]
    return {
        "two rows": [x, e[0]],
        "one row": [x],
        "duplicate rows": [x, x, x],
        "all zero": [SparseSequence()] * 4,
        "zero and one point": [SparseSequence(), x, SparseSequence(), x],
        # Every pair of +-e_j is at the largest distance.
        "ties at the maximum": [e[0], e[0].scale(-1.0), e[1], e[1].scale(-1.0), e[2]],
        # The two largest norms belong to equal rows, so the first pair
        # solved has norm 0 and nothing can be pruned.
        "largest norms duplicated": [x.scale(3.0), x.scale(3.0), x, e[0], e[1]],
        # Over the 200-row cap, the far point last.
        "over the cap": wide + [e[2].scale(4.0)],
        "over the cap, all equal": [x] * 230,
    }


@pytest.mark.parametrize("family", PRUNE_FAMILIES)
@pytest.mark.parametrize("case", list(_special_cases()))
def test_pruned_estimates_on_special_blocks(family, case):
    _assert_pruned_match_reference(_special_cases()[case], PRUNE_FAMILIES[family])


def test_pruning_skips_most_newton_solves():
    # The diagnose workload of the benchmark: the non-delta2 modular, 100
    # samples with the plateau witnesses, three levels, 8 centers.  Count
    # the elements Newton's derivative pass sees, here and in the reference,
    # which solves every pair and every (point, center).
    M = make_non_delta2()
    seen = [0]

    def counting(t):
        seen[0] += np.size(t)
        return M.deriv1(t)

    MC = dataclasses.replace(M, deriv1=counting)
    f = parse_objective(M, "modular")
    levels = (0.25, 0.0625, 0.015625)
    for seed in (7, 12345):
        sampler = BallSampler(
            seed=seed, count=100, support_size=6, index_range=40, decades=4.0,
            extra=_witnesses(),
        )
        seen[0] = 0
        got = wpmc_diagnose(MC, f, 1.0, levels, sampler, max_centers=8)
        pruned = seen[0]
        seen[0] = 0
        pts = ref_points(sampler, MC, 1.0)
        want = ref_wpmc(MC, pts, [f.eval(p) for p in pts], levels, sampler, 8)
        assert got == want
        assert pruned <= 0.2 * seen[0], (seed, pruned, seen[0])


# -- every level in lockstep against the reference of each level -------------


class _BlockSampler:
    """A sampler whose draw is one fixed block."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def dense_points(self, M, K):
        return self.rows, tuple(range(1, self.rows.shape[1] + 1))

    def describe(self):
        return "block"


def _assert_levels_match_reference(rows, depth, M, centers=8):
    # Level k holds the rows of depth >= k: value L - 1 - depth against the
    # level L - k - 1/2 of a sampled infimum 0 (the deepest rows).
    rows, depth = np.asarray(rows, dtype=float), np.asarray(depth)
    n_levels = int(depth.max()) + 1
    values = (n_levels - 1 - depth).astype(float)
    f = Objective(eval=lambda x: 0.0, eval_dense=lambda block, indices: values, domain_radius=1.0, lower_bound=0.0)
    levels = [n_levels - k - 0.5 for k in range(n_levels)]
    got = wpmc_diagnose(M, f, 1.0, levels, _BlockSampler(rows), max_centers=centers)
    for k in range(n_levels):
        pts = [SparseSequence.from_values(row) for row in rows[depth >= k]]
        assert got.alpha_estimates[k] == ref_kuratowski(pts, M, centers), k
        assert got.diam_estimates[k] == ref_diam(pts, M), k


# Level widths below 8, past 8 and not multiples of 8: padding a row with zero
# columns may change its norm in the last bits.
_level_widths = st.lists(st.sampled_from((1, 2, 3, 5, 6, 7, 9, 12, 17, 30)), min_size=2, max_size=4, unique=True)


@st.composite
def _nested_blocks(draw):
    widths = sorted(draw(_level_widths), reverse=True)
    rows, depth = [], []
    for k, width in enumerate(widths):
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            row = draw(st.lists(_entries, min_size=width, max_size=width))
            rows.append(row + [0.0] * (widths[0] - width))
            depth.append(k)
    dups = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
    order = draw(st.permutations(list(range(len(rows))) + dups))
    return [rows[i] for i in order], [depth[i] for i in order], draw(st.sampled_from((1, 2, 3, 8)))


@pytest.mark.parametrize("family", PRUNE_FAMILIES)
@given(block=_nested_blocks())
@settings(max_examples=40, deadline=None)
def test_lockstep_levels_equal_each_level_reference(family, block):
    rows, depth, centers = block
    _assert_levels_match_reference(rows, depth, PRUNE_FAMILIES[family], centers)


def _triangle_ties(M):
    """Rows c, c + v, c + 2v whose computed norms break the triangle
    inequality by rounding: ||x - far|| < ||x - c|| although 2 ||x - c|| <
    ||far - c||.  Only the margin keeps the covering radius from skipping x."""
    rng = np.random.default_rng(5)
    c = rng.uniform(-1.0, 1.0, size=(20000, 2))
    v = rng.uniform(-0.5, 0.5, size=(20000, 2))
    x, far = c + v, c + 2.0 * v
    nx, nf, nxf = (luxemburg_norm_dense(M, d) for d in (x - c, far - c, x - far))
    return [(c[i], x[i], far[i]) for i in np.flatnonzero((nxf < nx) & (2.0 * nx < nf))[:3]]


def _lockstep_cases(M):
    rng = np.random.default_rng(17)
    wide = np.zeros((240, 9))
    wide[:, :6] = rng.standard_normal((240, 6)) * 0.1
    wide[200, 3:] = 0.0
    wide[-1, 8] = 4.0
    x = rng.standard_normal(7)
    cases = {
        # 240 rows of width 9, past the 200-row cap with the far point last;
        # then 39 rows of width 6; then one row of width 3.
        "over the cap": (wide, [0] * 200 + [2] + [1] * 38 + [0]),
        "one-row level": ([x, 2.0 * x, -x], [0, 0, 1]),
        # The deepest level is all zero (radius 0, every pair solved).
        "all-zero level": ([x, np.zeros(7), x[:3].tolist() + [0.0] * 4, np.zeros(7)], [0, 2, 1, 2]),
        "duplicate rows": ([x, x, 0.5 * x, x, 0.5 * x], [0, 1, 1, 2, 2]),
    }
    for k, tie in enumerate(_triangle_ties(M)):
        cases[f"triangle tie {k}"] = (list(tie), [1, 1, 1])
    return cases


@pytest.mark.parametrize("family", PRUNE_FAMILIES)
def test_lockstep_levels_on_special_blocks(family):
    M = PRUNE_FAMILIES[family]
    for name, (rows, depth) in _lockstep_cases(M).items():
        for centers in (2, 8):
            _assert_levels_match_reference(rows, depth, M, centers)
