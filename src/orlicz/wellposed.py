"""Sampled well-posedness diagnostics over sublevel sets.

Everything here is relative to a finite sample: infima, sublevel sets,
covering radii.  The verdicts are desk-scale evidence, not proofs, and
the reports say which sampler produced them.  Each diagnostic draws one
dense block from its sampler, evaluates the objective on it once, and
takes sublevel sets as row masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Objective, _eval_each
from .errors import DomainError, NotProperError, OrliczError
from .functions import OrliczFunction
from .sampling import dense_to_sequences
from .sequences import SparseSequence, to_jsonable
from .space import _norms, _sigmas, luxemburg_norm, luxemburg_norm_dense, modular

__all__ = [
    "SublevelSample",
    "WellPosednessReport",
    "IntersectionCheck",
    "WitnessStats",
    "sublevel_sample",
    "kuratowski_estimate",
    "intersection_lemma_check",
    "wpmc_diagnose",
    "non_delta2_witness",
]

VERDICT_WPMC = "looks-wpmc"
VERDICT_NOT_WPMC = "looks-not-wpmc"
VERDICT_INCONCLUSIVE = "inconclusive"

# Relative margin of the modular tests that let the covering radius and the
# diameter skip norm solves: a row whose norm ties the test's radius within
# rounding still gets the exact solve.
_PRUNE_MARGIN = 1e-9
# Rows a diameter estimate compares pairwise, at most.
_DIAMETER_ROWS = 200
# Coordinates a witness may have.  Building one with its norm and modulars
# peaks at about 230 bytes per coordinate under tracemalloc (19 MB at 81,937),
# so the cap bounds it near 60 MB, the order of the 32 MiB sample cap.
_MAX_WITNESS = 1 << 18


@dataclass(frozen=True)
class SublevelSample:
    """Sampled points within `level` of the sampled infimum."""

    level: float
    points: tuple[SparseSequence, ...]
    inf_sample: float
    sampler_spec: str


@dataclass(frozen=True)
class WellPosednessReport:
    levels: tuple[float, ...]
    alpha_estimates: tuple[float, ...]
    diam_estimates: tuple[float, ...]
    verdict: str
    sampler_spec: str

    def to_dict(self) -> dict:
        return to_jsonable(self)


@dataclass(frozen=True)
class IntersectionCheck:
    """Truthy iff no sampled counterexample to the sublevel containment."""

    holds: bool
    hypothesis_nonempty: bool
    checked: int

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class WitnessStats:
    k: int
    t_k: float
    i_k: int
    ratio: float
    sigma_x: float
    sigma_2x: float
    norm_x: float

    def to_dict(self) -> dict:
        return to_jsonable(self)


def _draw(M: OrliczFunction, K: float, sampler, *objectives: Objective):
    """One sampler draw as a block whose column j is coordinate j + 1, each
    objective's values and infimum where all are finite."""
    rows, indices = sampler.dense_points(M, K)
    block = np.zeros((len(rows), max(indices)), dtype=float)
    block[:, np.asarray(indices) - 1] = rows
    indices = tuple(range(1, block.shape[1] + 1))
    seqs = None
    values = []
    for f in objectives:
        if f.eval_dense is not None:
            try:
                values.append(np.asarray(f.eval_dense(block, indices), dtype=float))
                continue
            except DomainError:  # the block misses a coordinate f reads, e.g. sqdist's z
                pass
        if seqs is None:
            seqs = dense_to_sequences(block, indices)
        values.append(_eval_each(f, seqs))
    finite = np.logical_and.reduce([np.isfinite(v) for v in values])
    if not finite.any():
        raise NotProperError("no sampled point has a finite value")
    return block, values, [float(v[finite].min()) for v in values]


def _trim(block: np.ndarray, idx) -> np.ndarray:
    """A view of block cut after the last nonzero column of its rows idx (one
    at least), as _dense_block cuts them."""
    nonzero = np.flatnonzero(block[idx].any(axis=0))
    return block[:, : nonzero[-1] + 1 if nonzero.size else 1]


def sublevel_sample(
    M: OrliczFunction,
    f: Objective,
    K: float,
    eps: float,
    sampler,
) -> SublevelSample:
    """Points of the sample within eps of the sampled infimum over K*B."""
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"level eps must be >= 0 and finite, got {eps}")
    block, (values,), (inf_sample,) = _draw(M, K, sampler, f)
    chosen = values <= inf_sample + eps
    points = dense_to_sequences(block[chosen], range(1, block.shape[1] + 1))
    return SublevelSample(
        level=eps, points=tuple(points), inf_sample=inf_sample,
        sampler_spec=sampler.describe(),
    )


def _dense_block(points) -> np.ndarray:
    width = max([1] + [p.max_index for p in points])
    return np.array([p.to_dense(width) for p in points], dtype=float).reshape(-1, width)


def kuratowski_estimate(
    points, M: OrliczFunction, max_centers: int
) -> float:
    """Greedy covering radius with max_centers centers (farthest-point rule).

    An upper proxy for the non-compactness index of the sampled set: the
    radius after k greedy centers is within a factor 2 of the best k-center
    radius, and it is non-increasing in max_centers.  Ties in the farthest
    point go to the lowest list index.
    """
    pts = list(points)
    if not pts:
        raise DomainError("cannot estimate covering radius of an empty sample")
    return _lockstep(M, [_cover(_dense_block(pts), np.arange(len(pts)), M, max_centers)])[0]


def _diam_estimate(rows: np.ndarray, M: OrliczFunction) -> float:
    """Largest pairwise distance among at most _DIAMETER_ROWS rows of the block."""
    return _lockstep(M, _diameter_tasks(rows, [np.arange(len(rows))], M))[0]


def _lockstep(M: OrliczFunction, tasks: list) -> list:
    """Each task's return value.  A task is a generator that yields requests
    and is sent their answers: a block of rows, for the rows' norms, or a
    sigma test (rows, ii, jj, rho), for sigma((rows[ii] - rows[jj]) / rho)
    pair by pair.  A round answers its pending blocks in one call of
    space._norms and its pending sigma tests in one call of space._sigmas.
    """
    out, sent = [None] * len(tasks), dict.fromkeys(range(len(tasks)))
    while sent:
        blocks, tests = {}, {}
        for k, answer in sent.items():
            try:
                request = tasks[k].send(answer)
            except StopIteration as stop:
                out[k] = stop.value
                continue
            (tests if isinstance(request, tuple) else blocks)[k] = request
        sent = dict(zip(blocks, _norms(M, list(blocks.values())))) if blocks else {}
        if tests:
            sent.update(zip(tests, _sigmas(M, list(tests.values()))))
    return out


def _cover(rows: np.ndarray, idx, M: OrliczFunction, max_centers: int):
    """_lockstep task: kuratowski_estimate on the nonempty rows idx of a
    block whose column j is coordinate j + 1.

    A new center c can lower dist[i] only if ||x_i - c|| <= dist[i].  It
    cannot if 2 dist[i] < dist[c] (margin included), as ||x_i - c|| >=
    dist[c] - dist[i], nor if sigma((x_i - c)/rho) > 1 at rho = dist[i]
    (1 + margin), one modular pass; those rows skip the norm solve.
    """
    if max_centers < 1:
        raise DomainError(f"max_centers must be >= 1, got {max_centers}")
    # dist[i] = distance from point i to its nearest chosen center
    dist = yield rows[idx] - rows[idx[0]]
    for _ in range(1, min(max_centers, len(idx))):
        far = int(np.argmax(dist))  # argmax takes the first maximum: lowest index wins ties
        if dist[far] == 0.0:
            break
        live = np.flatnonzero(2.0 * dist >= dist[far] * (1.0 - _PRUNE_MARGIN))
        sigma = yield rows, idx[live], idx[far], dist[live] * (1.0 + _PRUNE_MARGIN)
        live = live[~(sigma > 1.0)]  # NaN gets the exact solve
        dist[live] = np.minimum(dist[live], (yield rows[idx[live]] - rows[idx[far]]))
    return float(dist.max())


def _diameter_tasks(block: np.ndarray, levels, M: OrliczFunction) -> list:
    """_lockstep tasks: _diam_estimate of the rows idx of the block, for each idx.

    Equal to the largest norm over all pairs, from few norm solves.  Given
    the norm r of one pair, another pair's norm beats r only if its
    triangle bound ||x_i|| + ||x_j|| reaches r and its difference d has
    sigma(d/r) > 1 (margin included).  r comes from the pair with the
    largest bound, then from the surviving pair with the largest sigma,
    and only the pairs that survive both are solved.  The row norms feed
    only the bound, so the levels share one solve of them.
    """
    # Over _DIAMETER_ROWS rows, evenly spaced, first and last kept: samplers
    # append their special points (zero, witnesses) at the end.
    levels = [idx if len(idx) <= _DIAMETER_ROWS
              else idx[np.rint(np.linspace(0, len(idx) - 1, _DIAMETER_ROWS)).astype(int)] for idx in levels]
    used = np.unique(np.concatenate(levels))
    row_norms = np.zeros(len(block))
    row_norms[used] = luxemburg_norm_dense(M, _trim(block, used)[used])

    def diameter(rows, idx):
        if len(idx) < 2:
            return 0.0
        top = idx[np.argsort(row_norms[idx])[-2:]]  # the pair with the largest bound
        r = float((yield rows[top[:1]] - rows[top[1:]])[0])
        # The pairs are built after that yield and pruned before the next,
        # so that the levels do not hold all their pairs at once.
        ii, jj = (idx[p] for p in np.triu_indices(len(idx), k=1))
        for second in (True, False):
            if r == 0.0:  # no radius to test: every pair is solved
                break
            reach = r * (1.0 - _PRUNE_MARGIN)
            near = row_norms[ii] + row_norms[jj] >= reach
            ii, jj = ii[near], jj[near]
            sigma = yield rows, ii, jj, reach
            keep = ~(sigma <= 1.0)  # NaN gets the exact solve
            ii, jj, sigma = ii[keep], jj[keep], sigma[keep]
            if not ii.size:
                return r
            if second:  # the surviving pair with the largest sigma
                k = int(np.argmax(sigma))
                r = max(r, float((yield rows[ii[k : k + 1]] - rows[jj[k : k + 1]])[0]))
        return max(r, float((yield rows[ii] - rows[jj]).max()))

    return [diameter(_trim(block, idx), idx) for idx in levels]


def intersection_lemma_check(
    M: OrliczFunction,
    f: Objective,
    g: Objective,
    K: float,
    delta: float,
    sampler,
    fp_slack: float = 1e-9,
) -> IntersectionCheck:
    """Sampled containment: near-minimizers of f+g are near-minimizers of each.

    With S the common sample, if some point of S is within delta of both
    sampled infima, then every point of S within delta of inf(f+g) must be
    within 3*delta of each separate infimum.  The containment can be tight,
    so the 3*delta side carries an absolute fp_slack.
    """
    if not 0.0 < delta < math.inf:
        raise DomainError(f"delta must be > 0 and finite, got {delta}")
    _, (fv, gv), (inf_f, inf_g) = _draw(M, K, sampler, f, g)
    both = fv + gv
    inf_fg = both[np.isfinite(fv) & np.isfinite(gv)].min()
    hypothesis = (fv <= inf_f + delta) & (gv <= inf_g + delta)
    if not hypothesis.any():
        return IntersectionCheck(holds=True, hypothesis_nonempty=False, checked=0)
    candidates = both <= inf_fg + delta
    contained = (fv <= inf_f + 3.0 * delta + fp_slack) & (
        gv <= inf_g + 3.0 * delta + fp_slack
    )
    bad = candidates & ~contained
    return IntersectionCheck(
        holds=not bool(bad.any()),
        hypothesis_nonempty=True,
        checked=int(candidates.sum()),
    )


def wpmc_diagnose(
    M: OrliczFunction,
    f: Objective,
    K: float,
    levels,
    sampler,
    max_centers: int = 8,
    tol: float = 1e-2,
    slack: float = 0.1,
) -> WellPosednessReport:
    """Covering-radius and diameter trends across shrinking sublevel sets.

    looks-wpmc: both estimates fall below tol at the smallest level and
    decrease weakly (within `slack`) along the way.  looks-not-wpmc: either
    estimate at the smallest level stays above 10*tol.
    Anything else is inconclusive.
    """
    levels = tuple(float(v) for v in levels)
    if not levels or not all(0.0 < v < math.inf for v in levels):
        raise DomainError("levels must be positive and finite")
    if any(a <= b for a, b in zip(levels, levels[1:])):
        raise DomainError("levels must be strictly decreasing")

    block, (values,), (inf_sample,) = _draw(M, K, sampler, f)

    chosen = [np.flatnonzero(values <= inf_sample + level) for level in levels]
    covers = [_cover(_trim(block, idx), idx, M, max_centers) for idx in chosen]
    out = _lockstep(M, covers + _diameter_tasks(block, chosen, M))
    alphas, diams = out[: len(levels)], out[len(levels) :]

    def weakly_decreasing(seq) -> bool:
        return all(b <= a * (1.0 + slack) + 1e-12 for a, b in zip(seq, seq[1:]))

    if (
        alphas[-1] < tol
        and diams[-1] < tol
        and weakly_decreasing(alphas)
        and weakly_decreasing(diams)
    ):
        verdict = VERDICT_WPMC
    elif alphas[-1] > 10.0 * tol or diams[-1] > 10.0 * tol:
        # Either estimate staying an order of magnitude above tol at the
        # deepest level is evidence the sublevel sets do not collapse.
        verdict = VERDICT_NOT_WPMC
    else:
        verdict = VERDICT_INCONCLUSIVE
    return WellPosednessReport(
        levels=levels,
        alpha_estimates=tuple(alphas),
        diam_estimates=tuple(diams),
        verdict=verdict,
        sampler_spec=sampler.describe(),
    )


def non_delta2_witness(
    M: OrliczFunction,
    k: int,
    refinement: int = 4,
    max_scan: int = 400,
) -> tuple[SparseSequence, WitnessStats]:
    """A plateau sequence with small modular but norm pinned near 1/2.

    Scans t downward on the geometric grid 2^(-j/refinement), j = 1..max_scan,
    for the first point with 2t < 1, 0 < M(2t) < 1 and M(t)/M(2t) < 1/k; the
    grid is evaluated as one array at t and one at 2t.  The witness
    puts t on the first floor(1/M(2t)) coordinates, so its modular stays
    below 1/k + M(t) while doubling it pushes the modular toward 1 and the
    norm into [sigma(2x)/2, 1/2].  Fails when the ratio never drops (the
    function satisfies the doubling condition at this resolution).
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if refinement < 1:
        raise DomainError(f"refinement must be >= 1, got {refinement}")
    t = 2.0 ** (-np.arange(1, max_scan + 1) / refinement)
    m_t = np.asarray(M.eval(t), dtype=float)
    m_2t = np.asarray(M.eval(2.0 * t), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        hit = (2.0 * t < 1.0) & (0.0 < m_2t) & (m_2t < 1.0) & (m_t / m_2t < 1.0 / k)
    if not hit.any():
        raise OrliczError(
            f"no scan point with M(t)/M(2t) < 1/{k}; "
            "the function appears to satisfy the doubling condition"
        )
    j = int(np.argmax(hit))
    t_k, m_t, m_2t = float(t[j]), float(m_t[j]), float(m_2t[j])
    if 1.0 / m_2t >= _MAX_WITNESS + 1:
        raise DomainError(
            f"witness for k={k} needs {1.0 / m_2t:.4g} coordinates, over the cap "
            f"of {_MAX_WITNESS:,}; lower k"
        )
    i_k = int(math.floor(1.0 / m_2t))
    x = SparseSequence.from_pairs((n, t_k) for n in range(1, i_k + 1))
    stats = WitnessStats(
        k=k,
        t_k=t_k,
        i_k=i_k,
        ratio=m_t / m_2t,
        sigma_x=modular(M, x),
        sigma_2x=modular(M, x.scale(2.0)),
        norm_x=luxemburg_norm(M, x),
    )
    return x, stats
