"""Constructive minimization by accumulated modular perturbations.

The engine adds a small nonnegative weighted modular g_a to an objective
so that the sum attains its minimum on a truncated grid, with an explicit
certificate.  One perturbation round localizes the sublevel sets (tail
coordinates of near-minimizers are pinned below the round's budget); the
loop spends a geometrically shrinking budget per round so the accumulated
weights stay strictly below the requested total.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NotProperError, OrliczError
from .functions import OrliczFunction
from .sequences import SparseSequence, to_jsonable
from .space import (
    _require_constant,
    _terms,
    luxemburg_norm,
    luxemburg_norm_dense,
    modular,
    nu_bound,
    phi_bound,
)
from .weights import PerturbationWeights, g_eval, g_eval_dense

__all__ = [
    "Objective",
    "GridOracle",
    "SolveReport",
    "SupportReport",
    "construct_local_perturbation",
    "perturb_minimize",
    "support_from_below",
    "supporting_functional",
]

# Rows per chunk of the streamed sweep, which bounds its temporaries.
_CHUNK_ROWS = 1 << 18
# Near-minimizers whose tail norms the tail proxy takes, at most.
_TAIL_ROWS = 10_000
# Largest grid an oracle accepts, checked before anything is allocated;
# criterion 07's grid has 201^3 = 8,120,601 points.
_MAX_POINTS = 1 << 24
# Largest grid the scalar fallback of _grid_values walks: one sparse
# sequence plus one scalar objective call per point.
_MAX_SCALAR_POINTS = 100_000
# Rows the scalar fallback converts to sparse sequences at a time.
_SEQUENCE_ROWS = 1 << 10


@dataclass(frozen=True)
class Objective:
    """A proper extended-real function on a declared norm ball.

    domain_radius, positive and finite, is the radius of that ball.
    eval maps a sparse sequence to a float, +inf allowed outside the
    effective domain, NaN never.  eval_dense, when provided, evaluates a
    dense (n, d) block whose columns live on the given coordinate indices.
    eval_grid, when provided, maps a GridOracle to f's values at all of its
    points in flat order, typically from per-axis vectors through
    GridOracle.outer_sum.  Both are called on whole grids, points outside
    the domain ball included, and must give a float or +inf at each.  The
    engine evaluates f over its grid once per solve: through eval_grid when
    present, else through eval_dense in streamed chunks, else through eval
    row by row over each chunk's sparse sequences, as the diagnostics do, on
    grids of at most 100,000 points.  Each built-in objective but the
    modular is f = from_norm(||x - c||) with one from_norm behind all three
    evaluators, and every built-in eval is the one-row result of its
    eval_dense, bit for bit on rows of up to 7 columns; from 8 on numpy's
    row sum goes pairwise, so a row's value may differ in the last bits from
    its sparse sequence's.  lower_bound is a witness that the objective is
    bounded below; probe_points witness properness.  coercive is a caller
    assertion (the engine treats the objective as non-coercive unless told
    otherwise).
    """

    eval: Callable[[SparseSequence], float]
    domain_radius: float
    lower_bound: float
    eval_dense: Optional[Callable] = None
    eval_grid: Optional[Callable] = None
    probe_points: tuple[SparseSequence, ...] = field(default=(SparseSequence(),))
    coercive: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.domain_radius < math.inf:
            raise DomainError(
                f"objective domain_radius must be positive and finite, got {self.domain_radius}"
            )

    def assert_proper(self) -> None:
        for p in self.probe_points:
            v = float(self.eval(p))
            if math.isnan(v):
                raise OrliczError("objective returned NaN at a probe point")
            if v < math.inf:
                return
        raise NotProperError("objective is +inf at every probe point")


class GridOracle:
    """Exhaustive search over a box grid on the leading coordinates.

    The grid is the product of one axis of 2n+1 values per coordinate,
    flattened in C order (meshgrid "ij"), so flat index k maps to a row
    through np.unravel_index.  Exact on its own grid, so it meets any
    accuracy request.  outer_sum() builds a separable sum such as f or
    sigma from one vector per axis, sum_at() its values at given points,
    and evaluate() streams the grid in flat-index chunks through a row
    evaluator; none holds the whole (points, d) array, which grid() builds
    only on request.  It is also the diagnostics' grid sampler:
    dense_points() is the whole grid.
    """

    def __init__(self, indices: tuple[int, ...] = (1, 2, 3), step: float = 0.05, radius: float = 1.0):
        if not indices or len(indices) > 8:
            raise DomainError("grid oracle supports 1..8 coordinates")
        if len(set(indices)) != len(indices) or any(i < 1 for i in indices):
            raise DomainError(f"grid indices must be distinct and >= 1, got {indices}")
        if not (0.0 < step <= radius < math.inf):
            raise DomainError("need 0 < step <= radius < inf")
        self.indices = tuple(int(i) for i in indices)
        self.step = float(step)
        self.radius = float(radius)
        n = int(math.floor(self.radius / self.step + 1e-9))
        side = 2 * n + 1
        self.points = side ** len(self.indices)
        if self.points > _MAX_POINTS:
            raise DomainError(
                f"grid of {side}^{len(self.indices)} = {self.points:.3g} points "
                f"exceeds the cap of {_MAX_POINTS:,}; raise the step or use fewer coordinates"
            )
        self.axis = np.arange(-n, n + 1, dtype=float) * self.step
        self._shape = (side,) * len(self.indices)

    def rows_at(self, flat: np.ndarray) -> np.ndarray:
        """Grid rows at the given flat indices, one column per coordinate."""
        return self.axis[np.stack(np.unravel_index(flat, self._shape), axis=-1)]

    def grid(self) -> np.ndarray:
        """The whole (points, d) grid, built on request."""
        return self.rows_at(np.arange(self.points))

    def dense_points(self, M: Optional[OrliczFunction] = None, radius: Optional[float] = None) -> tuple:
        """(rows, indices) of every grid point, as a sampler's draw; M and radius are unused."""
        return self.grid(), self.indices

    def sequence_at(self, row: int) -> SparseSequence:
        return SparseSequence.from_pairs(zip(self.indices, self.axis[list(np.unravel_index(row, self._shape))]))

    def evaluate(self, dense_fn: Callable) -> np.ndarray:
        """dense_fn's values over the whole grid, streamed in flat-index chunks."""

        def chunk(start: int) -> np.ndarray:
            stop = min(start + _CHUNK_ROWS, self.points)
            return _checked(dense_fn(self.rows_at(np.arange(start, stop)), self.indices), stop - start, "dense")

        if self.points <= _CHUNK_ROWS:  # one chunk: its array is the result
            return chunk(0)
        out = np.empty(self.points, dtype=float)
        for start in range(0, self.points, _CHUNK_ROWS):
            out[start : start + _CHUNK_ROWS] = chunk(start)
        return out

    def outer_sum(self, parts: list[np.ndarray], out: Optional[np.ndarray] = None) -> np.ndarray:
        """sum_j parts[j][k_j] at every grid point, in flat order.

        parts holds one float vector of length 2n+1 per coordinate; the d
        vectors are outer-added in the grid's C order, left to right.
        numpy's row sum adds up to 7 columns in that order, so a sum of the
        same terms matches it bit for bit below 8 coordinates; at 8 the row
        sum goes pairwise and the two may differ in the last bits.  The sums
        go into out, one contiguous value per grid point, or a new array:
        each row of the last axis gets that axis's vector, then the outer
        sum of the other axes as a column (x + y = y + x in IEEE
        arithmetic, so these are the same sums).
        """
        out = np.empty(self.points) if out is None else out
        rows = out.reshape(-1, len(self.axis))
        rows[:] = parts[-1]
        if len(parts) > 1:
            rows += functools.reduce(np.add.outer, parts[:-1]).reshape(-1, 1)
        return out

    def sum_at(self, parts: list[np.ndarray], flat: np.ndarray) -> np.ndarray:
        """outer_sum's sums of one vector per axis at the flat indices only, bit for bit."""
        ks = np.unravel_index(flat, self._shape)
        out = parts[0][ks[0]]
        for part, k in zip(parts[1:], ks[1:]):
            out += part[k]
        return out

    def describe(self) -> str:
        return (
            f"grid(indices={list(self.indices)}, step={self.step:g}, "
            f"radius={self.radius:g}, points={self.points})"
        )


def _checked(vals, n: int, kind: str) -> np.ndarray:
    """vals as a float array, which must hold one value per grid point."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (n,):
        raise OrliczError(f"{kind} evaluator returned shape {vals.shape} for {n} grid points")
    return vals


def _eval_each(f: Objective, seqs) -> np.ndarray:
    """f.eval at each sparse sequence of an iterable, as a float array."""
    return np.fromiter((float(f.eval(x)) for x in seqs), dtype=float)


def _grid_values(f: Objective, oracle: GridOracle) -> np.ndarray:
    """f at every grid point: from eval_grid, else eval_dense, else eval row by row."""
    if f.eval_grid is not None:
        return _checked(f.eval_grid(oracle), oracle.points, "grid")
    if f.eval_dense is not None:
        return oracle.evaluate(f.eval_dense)
    if oracle.points > _MAX_SCALAR_POINTS:
        raise DomainError(
            f"objective has no dense evaluator; the per-point fallback is "
            f"capped at {_MAX_SCALAR_POINTS:,} grid points, this grid has {oracle.points:,}"
        )
    from .sampling import dense_to_sequences

    def each_row(rows: np.ndarray, indices: tuple[int, ...]) -> np.ndarray:
        # A few rows' sequences at a time, not the whole chunk's.
        starts = range(0, len(rows), _SEQUENCE_ROWS)
        return _eval_each(f, (x for s in starts for x in dense_to_sequences(rows[s : s + _SEQUENCE_ROWS], indices)))

    return oracle.evaluate(each_row)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a perturbation run, serializable for the command line."""

    weights: PerturbationWeights
    minimizer: SparseSequence
    min_value: float
    iterations: int
    converged: bool
    final_tail_index: int
    compactness_proxy: float
    certificate_accuracy: float
    certificate_resolution: str

    def to_dict(self) -> dict:
        return to_jsonable(self)


@dataclass(frozen=True)
class SupportReport:
    """Weights supporting f from below and the contact point."""

    weights: PerturbationWeights
    minimizer: SparseSequence
    supported_value: float
    inner: SolveReport

    def to_dict(self) -> dict:
        return to_jsonable(self)


def construct_local_perturbation(
    M: OrliczFunction,
    x: SparseSequence,
    K: float,
    eps: float,
) -> tuple[PerturbationWeights, float]:
    """Weights a with sup a_n = eps, g_a(x) < delta, and pinned tails.

    Returns (a, delta) where delta is the largest eps*C^j/3 whose sublevel
    diameter bound at 3*delta/eps falls below eps.  The head weight theta
    keeps the head contribution under delta/4; the head length N cuts the
    tail modular of x under delta/(2 eps).  Consequences, exact on finitely
    supported data: sup_norm(a) = eps, g_a(x) < delta, and every y in the
    K-ball with g_a(y) <= 3*delta has ||tail beyond N|| < eps.
    """
    if eps <= 0.0 or not math.isfinite(eps):
        raise DomainError(f"eps must be positive and finite, got {eps}")
    if K <= 0.0 or not math.isfinite(K):
        raise DomainError(f"K must be positive and finite, got {K}")
    nx = luxemburg_norm(M, x)
    if nx > K * (1.0 + 1e-9):
        raise DomainError(f"point norm {nx} exceeds the declared radius {K}")
    C = _require_constant(M)

    delta = None
    power = 1.0
    for _ in range(10000):
        candidate = eps * power / 3.0
        if phi_bound(M, 3.0 * candidate / eps) < eps:
            delta = candidate
            break
        power *= C
    if delta is None:
        raise OrliczError("sublevel diameter bound never fell below eps")

    theta = min(eps / 2.0, delta / (4.0 * nu_bound(M, K)))
    tail_budget = delta / 2.0
    # The tail beyond N is terms[j:] for indices[j-1] <= N < indices[j], so
    # N is 0 or an index of x; terms[len:] sums to 0, which ends the scan.
    indices = x.indices()
    terms = _terms(M, np.array(x.values(), dtype=float))
    j = next(j for j in range(len(terms) + 1) if eps * terms[j:].sum() < tail_budget)
    N = indices[j - 1] if j else 0
    a = PerturbationWeights(head=(theta,) * N, tail=eps)
    return a, delta


def _total_values(
    f: Objective,
    oracle: GridOracle,
    parts: list[np.ndarray],
    base: np.ndarray,
    slab_min: np.ndarray,
    refs: tuple[int, ...],
    level: float,
) -> tuple[int, float, np.ndarray, np.ndarray]:
    """The flat argmin of f + g_a, the lowest total, and the flat indices (in
    flat order) and totals of points that hold every total <= lowest + level.

    parts are g_a's per-axis terms, base f's values (no NaN).  As g_a >= 0
    and rounding is monotone, no total is below f at its point, nor, in
    leading-axis slab s, below the bound ((parts[0][s] + min parts[1]) + ...)
    + slab_min[s].  The least total at refs and at the lowest-bound point is
    >= lowest, so g_a + f is summed only from the first to the last slab
    whose bound is <= it + level, where f is <= it + level too: the argmin
    (first flat index on ties), the totals and the checks (a NaN total, +inf
    everywhere, a total below f's lower bound) are the whole grid's.
    """

    def totals(flat: np.ndarray) -> np.ndarray:
        vals = oracle.sum_at(parts, flat)
        vals += base[flat]
        return vals

    bound = parts[0]
    for part in parts[1:]:
        bound = bound + part.min()
    bound = bound + slab_min
    corner = (int(np.argmin(bound)), *(int(np.argmin(part)) for part in parts[1:]))
    reference = float(totals(np.array([*refs, np.ravel_multi_index(corner, oracle._shape)])).min())
    # A NaN bound is a NaN term, or +inf terms over a slab where f is -inf.
    if math.isnan(reference) or np.isnan(bound).any():
        raise OrliczError("objective returned NaN on the grid")
    cut = reference + level
    slabs = np.flatnonzero(bound <= cut)  # never empty: it holds the reference point's slab
    slab_points = oracle.points // len(oracle.axis)
    lo, hi = slabs[0] * slab_points, (slabs[-1] + 1) * slab_points
    flat = lo + np.flatnonzero(base[lo:hi] <= cut)
    vals = totals(flat)
    i = int(np.argmin(vals))
    lowest = float(vals[i])
    if math.isnan(lowest):
        raise OrliczError("objective returned NaN on the grid")
    if lowest == math.inf:
        raise NotProperError("objective is +inf on the whole grid")
    if lowest == -math.inf or lowest < f.lower_bound - 1e-9 * (1.0 + abs(f.lower_bound)):
        raise OrliczError(f"objective dipped below its declared lower bound {f.lower_bound}")
    return int(flat[i]), lowest, flat, vals


def _tail_proxy(
    M: OrliczFunction,
    oracle: GridOracle,
    flat: np.ndarray,
    vals: np.ndarray,
    lowest: float,
    level: float,
    head_len: int,
) -> float:
    """Max tail norm over the first _TAIL_ROWS near-minimizers among flat, whose totals are vals."""
    tail_cols = [j for j, idx in enumerate(oracle.indices) if idx > head_len]
    if not tail_cols:
        return 0.0
    rows = flat[vals <= lowest + level][:_TAIL_ROWS]
    block = oracle.rows_at(rows)[:, tail_cols]
    return float(luxemburg_norm_dense(M, block).max())


def perturb_minimize(
    M: OrliczFunction,
    f: Objective,
    eps: float,
    oracle: GridOracle,
    budget: int = 50,
    tail_tol: float = 1e-3,
    move_tol: float = 1e-6,
) -> SolveReport:
    """Accumulate perturbations until the grid minimizer stabilizes.

    Round n spends eps * 2^(-n-2) on a perturbation centered at the current
    grid argmin; if the objective was not declared coercive, an initial
    eps/4 uniform weight is folded in first.  The run stops when the argmin
    moves by less than move_tol and the sampled sublevel set at the round's
    delta has tail norms below tail_tol beyond the accumulated head.  The
    accumulated sup norm stays strictly below eps on every path, including
    budget exhaustion.
    """
    if eps <= 0.0 or not math.isfinite(eps):
        raise DomainError(f"eps must be positive and finite, got {eps}")
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    f.assert_proper()
    _require_constant(M)  # every round needs it: fail before the sweep
    # f is fixed: its slab minima, first argmin (a NaN slab minimum marks a
    # NaN) and M(|axis|) are taken once per solve.
    base = _grid_values(f, oracle)
    slabs = base.reshape(len(oracle.axis), -1)
    slab_min = slabs.min(axis=1)
    s = int(np.argmin(slab_min))
    k_f = s * slabs.shape[1] + int(np.argmin(slabs[s]))
    if math.isnan(base[k_f]):
        raise OrliczError("objective returned NaN on the grid")
    m_axis = _terms(M, oracle.axis)

    def round_totals(weights: PerturbationWeights, refs: tuple[int, ...], level: float):
        # No weights: terms -0.0, so totals are f bit for bit (0 * inf is NaN).
        m = m_axis if weights.sup_norm > 0.0 else np.full_like(m_axis, -0.0)
        parts = [weights.weight_at(i) * m for i in oracle.indices]
        return _total_values(f, oracle, parts, base, slab_min, refs, level)

    theta0 = 0.0 if f.coercive else eps / 4.0
    weights = PerturbationWeights(head=(), tail=theta0)
    k, lowest, _, _ = round_totals(weights, (k_f,), 0.0)
    x_cur = oracle.sequence_at(k)

    converged = False
    iterations = 0
    delta_n = math.nan
    proxy = math.inf
    for n in range(1, budget + 1):
        eps_n = eps * 2.0 ** (-n - 2)
        K_eff = max(f.domain_radius, luxemburg_norm(M, x_cur))
        a_n, delta_n = construct_local_perturbation(M, x_cur, K_eff, eps_n)
        weights = weights + a_n
        k, lowest, flat, vals = round_totals(weights, (k, k_f), delta_n)
        x_next = oracle.sequence_at(k)
        moved = luxemburg_norm(M, x_next - x_cur)
        proxy = _tail_proxy(M, oracle, flat, vals, lowest, delta_n, len(weights.head))
        iterations = n
        x_cur = x_next
        if moved < move_tol and proxy < tail_tol:
            converged = True
            break

    if weights.sup_norm >= eps:
        raise OrliczError("weight budget overflow; schedule violated")
    return SolveReport(
        weights=weights,
        minimizer=x_cur,
        min_value=lowest,
        iterations=iterations,
        converged=converged,
        final_tail_index=len(weights.head),
        compactness_proxy=proxy,
        certificate_accuracy=delta_n,
        certificate_resolution=oracle.describe(),
    )


def support_from_below(
    M: OrliczFunction,
    f: Objective,
    delta_lo: float,
    eps_hi: float,
    oracle: GridOracle,
    budget: int = 50,
    tail_tol: float = 1e-3,
    move_tol: float = 1e-6,
) -> SupportReport:
    """Weights a with delta_lo <= a_n <= eps_hi and f - g_a minimized on grid.

    Applies the engine to f - eps_hi * sigma (coercive outright: it is +inf
    off the bounded domain ball) with the budget eps_hi - delta_lo, then
    flips the accumulated weights: a_n = eps_hi - a'_n.  Since sup a' stays
    strictly under the budget, every a_n lands strictly above delta_lo.
    """
    if not (0.0 < delta_lo < eps_hi):
        raise DomainError(f"need 0 < delta_lo < eps_hi, got {delta_lo}, {eps_hi}")
    K = f.domain_radius
    radius_slack = K * (1.0 + 1e-9)

    # ||x|| > r exactly when sigma(x/r) > 1: one modular pass, no norm solve.
    def shifted(x: SparseSequence) -> float:
        if modular(M, x.scale(1.0 / radius_slack)) > 1.0:
            return math.inf
        return float(f.eval(x)) - eps_hi * modular(M, x)

    # sigma is separable for every M, so f1 has a grid evaluator when f has a
    # dense one.  It holds f's values, only read (a user eval_grid may keep
    # them), a mask, and one array: sigma(x/r) until the mask is taken, then
    # eps_hi * sigma, then f1's values, +inf outside the ball (where f and
    # sigma may both be inf).  Otherwise the engine sweeps shifted row by
    # row, which calls f inside the domain ball only.
    def shifted_grid(oracle: GridOracle) -> np.ndarray:
        base = _grid_values(f, oracle)
        with np.errstate(over="ignore"):  # for a tiny r, axis / r may pass the float range: inf
            scaled = oracle.axis / radius_slack
        d = len(oracle.indices)
        out = oracle.outer_sum([_terms(M, scaled)] * d)
        outside = out > 1.0
        oracle.outer_sum([_terms(M, oracle.axis)] * d, out)
        out *= eps_hi
        with np.errstate(invalid="ignore"):  # inf - inf happens outside the ball only
            np.subtract(base, out, out=out)
        out[outside] = math.inf
        return out

    f1 = Objective(
        eval=shifted,
        domain_radius=K,
        lower_bound=f.lower_bound - eps_hi * nu_bound(M, K),
        eval_grid=None if f.eval_grid is None and f.eval_dense is None else shifted_grid,
        probe_points=f.probe_points,
        coercive=True,
    )
    inner = perturb_minimize(
        M, f1, eps_hi - delta_lo, oracle, budget=budget,
        tail_tol=tail_tol, move_tol=move_tol,
    )
    a = PerturbationWeights(
        head=tuple(eps_hi - v for v in inner.weights.head),
        tail=eps_hi - inner.weights.tail,
    )
    x_bar = inner.minimizer
    return SupportReport(
        weights=a,
        minimizer=x_bar,
        supported_value=float(f.eval(x_bar)) - g_eval(M, a, x_bar),
        inner=inner,
    )


def supporting_functional(
    M: OrliczFunction,
    a: PerturbationWeights,
    x_bar: SparseSequence,
    K: float,
    check_samples: int = 0,
    seed: int = 0,
) -> tuple[SparseSequence, float]:
    """Subgradient of g_a at x_bar and a bound on its functional norm.

    p_n = a_n M'(|x_bar_n|) sign(x_bar_n) on the support, 0 elsewhere;
    coordinate convexity of t -> M(|t|) makes p a global subgradient of
    g_a.  The norm bound 2 sup|a_n| nu_bound(M, K+2) follows from the
    Lipschitz estimate on the slightly enlarged ball.  With check_samples
    > 0, the subgradient inequality is spot-checked on that many seeded
    points of the K-ball (tolerance 1e-10) before returning.
    """
    p = SparseSequence.from_pairs(
        (idx, a.weight_at(idx) * M.d1(abs(val)) * math.copysign(1.0, val)) for idx, val in x_bar.entries
    )
    norm_bound = 2.0 * a.sup_norm * nu_bound(M, K + 2.0)

    if check_samples > 0:
        from .sampling import BallSampler

        span = max(x_bar.max_index, len(a.head)) + 10
        sampler = BallSampler(
            seed=seed,
            count=check_samples,
            support_size=min(6, span),
            index_range=span,
        )
        block, indices = sampler.dense_points(M, K)
        width = len(indices)
        gaps = (
            g_eval_dense(M, a, block, indices)
            - g_eval(M, a, x_bar)
            - (block - x_bar.to_dense(width)) @ p.to_dense(width)
        )
        if gaps.min() < -1e-10:
            raise OrliczError(
                f"subgradient inequality failed by {gaps.min():.3e} at a sample"
            )
    return p, norm_bound
