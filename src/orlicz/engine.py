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
    GridOracle.separable.  Both are called on whole grids, points outside
    the domain ball included, and must give a float or +inf at each.  A
    solve builds f over its grid through eval_grid when present, else
    through eval_dense in streamed chunks, else through eval row by row over
    each chunk's sparse sequences, as the diagnostics do, on grids of at
    most 100,000 points.  The built-ins' eval_grid is a separable form,
    f = finish(sum_j t_j(x_j)) with finish non-decreasing: from it a solve
    builds f only on the leading-axis slabs whose lower bound it cannot rule
    out, and the support builds its shifted objective in one pass.  Each
    built-in objective but the modular is f = from_norm(||x - c||) with one
    from_norm behind all three evaluators, and every built-in eval is the
    one-row result of its eval_dense, bit for bit on rows of up to 7
    columns; from 8 on numpy's row sum goes pairwise, so a row's value may
    differ in the last bits from its sparse sequence's.  lower_bound is a
    witness that the objective is bounded below; probe_points witness
    properness.  coercive is a caller assertion (the engine treats the
    objective as non-coercive unless told otherwise).
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
    accuracy request.  separable() builds a pointwise function of separable
    sums such as f or sigma from one vector per axis, outer_sum() one such
    sum, sum_at() its values at given points, and evaluate() streams the
    grid in flat-index chunks through a row evaluator; none holds the whole
    (points, d) array, which grid() builds only on request.  It is also the
    diagnostics' grid sampler: dense_points() is the whole grid, up to
    BallSampler's cap of 2^22 cells.
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
        """(rows, indices) of every grid point, as a sampler's draw; M and radius are unused.

        A draw of more cells than BallSampler's cap is refused before anything is allocated.
        """
        from .sampling import _MAX_CELLS

        cells = self.points * len(self.indices)
        if cells > _MAX_CELLS:
            raise DomainError(
                f"grid sample of {self.points:,} points x {len(self.indices)} coordinates exceeds "
                f"the cap of {_MAX_CELLS:,} cells; raise the step or use fewer coordinates"
            )
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

    @staticmethod
    def outer_sum(parts: list[np.ndarray]) -> np.ndarray:
        """sum_j parts[j][k_j] at every index tuple of the vectors, in C order, in a new array.

        With one vector of length 2n+1 per coordinate, that is every grid
        point in flat order; separable() also passes a leading vector cut to
        a run of slabs.  The vectors are outer-added left to right: each row
        of the last vector gets that vector, plus the outer sum of the others
        as a column (x + y = y + x in IEEE arithmetic), so every sum adds its
        terms in the order sum_at does.  numpy's row sum adds up to 7 columns
        in that order, so a sum of the same terms matches it bit for bit
        below 8 coordinates; at 8 the row sum goes pairwise and the two may
        differ in the last bits.
        """
        out = np.empty((math.prod(len(p) for p in parts[:-1]), len(parts[-1])))
        out[:] = parts[-1]
        if len(parts) > 1:
            out += functools.reduce(np.add.outer, parts[:-1]).reshape(-1, 1)
        return out.reshape(-1)

    def sum_at(self, parts: list[np.ndarray], flat: np.ndarray) -> np.ndarray:
        """outer_sum's sums of one vector per axis at the flat indices only, bit for bit."""
        ks = np.unravel_index(flat, self._shape)
        out = parts[0][ks[0]]
        for part, k in zip(parts[1:], ks[1:]):
            out += part[k]
        return out

    def separable(
        self, groups: list[list[np.ndarray]], pointwise: Callable, values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """pointwise of one outer sum per group at every grid point, in flat order.

        groups holds one list of per-axis vectors per sum, each summed as
        outer_sum sums it; groups equal bit for bit share one sum array, so
        pointwise may get one array twice and must read every argument
        before it overwrites one.  With values, one float per grid point in
        flat order, pointwise gets the values of the same points first and
        must leave them as they are.  pointwise maps equal-length arrays to
        the values at those points, elementwise, and may return one of its
        sum arrays.  The sums go in chunks of whole leading-axis slabs of at
        most _CHUNK_ROWS points (one slab if larger).  Without values, an
        axis on which every group's vector is a bitwise palindrome folds:
        only its first n+1 entries are summed, and the mirror entries copied,
        which are exact, as they sum the same operands in the same order.
        """
        d, n = len(self.indices), len(self.axis) // 2
        folded = [] if values is not None else [a for a in range(d) if all(_palindrome(g[a]) for g in groups)]
        keep = tuple(slice(0, n + 1) if a in folded else slice(None) for a in range(d))
        keys = [tuple(v.tobytes() for v in g) for g in groups]
        parts = {key: [v[k] for v, k in zip(g, keep)] for key, g in zip(keys, groups)}
        out = np.empty(self._shape)
        block = out[keep]
        per_slab = block.size // len(block)
        step = max(1, _CHUNK_ROWS // per_slab)
        for s in range(0, len(block), step):
            sums = {key: self.outer_sum([p[0][s : s + step], *p[1:]]) for key, p in parts.items()}
            args = [sums[key] for key in keys]
            if values is not None:
                args.insert(0, values[s * per_slab : (s + step) * per_slab])
            chunk = block[s : s + step]
            chunk[...] = pointwise(*args).reshape(chunk.shape)
        # Last folded axis first: each mirror copies a region that is complete.
        for a in reversed(folded):
            head = tuple(slice(0, n + 1) if b in folded else slice(None) for b in range(a))
            out[(*head, slice(n + 1, None))] = out[(*head, slice(n - 1, None, -1))]
        return out.reshape(-1)

    def describe(self) -> str:
        return (
            f"grid(indices={list(self.indices)}, step={self.step:g}, "
            f"radius={self.radius:g}, points={self.points})"
        )


def _palindrome(v: np.ndarray) -> bool:
    return v.tobytes() == v[::-1].tobytes()


class _SeparableGrid:
    """A built-in's grid evaluator, from its separable form.

    form(oracle) is (terms, finish): one vector of terms per coordinate, and
    finish, which maps an array of summed terms to f's values in place,
    non-decreasing.  It is None where the plain sums would lose f's values;
    then the grid goes through the dense evaluator in streamed chunks.
    Called on an oracle, it is f over the whole grid, from one
    GridOracle.separable pass; the solve and the support read form itself.
    """

    def __init__(self, form: Callable, dense: Callable):
        self.form = form
        self.dense = dense

    def __call__(self, oracle: GridOracle) -> np.ndarray:
        form = self.form(oracle)
        if form is None:
            return oracle.evaluate(self.dense)
        terms, finish = form
        return oracle.separable([terms], finish)


def _form(f: Objective, oracle: GridOracle):
    """f's separable form on the oracle's grid, or None for an objective without one."""
    return f.eval_grid.form(oracle) if isinstance(f.eval_grid, _SeparableGrid) else None


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


class _Slabs:
    """f's values over a grid, held for one window [lo, hi) of leading-axis slabs.

    floor[s] is the least value of f over slab s once the window covers s,
    and a lower bound of it before.  From a whole-grid array the window is
    the whole grid.  From a separable form (terms, finish) it starts empty,
    and floor[s] is finish(t_0[s] + sum_{j>0} min t_j), the least sum of
    slab s finished, less a relative margin of 1e-9 (pow and exp are not
    guaranteed monotone to the last ulp), +inf kept; cover() builds slabs
    from the same sums in the same order as the whole grid's, so every value
    is the whole-array path's bit for bit.
    """

    def __init__(self, oracle: GridOracle, values: Optional[np.ndarray] = None, form=None):
        side = len(oracle.axis)
        self.size = oracle.points // side
        self.form = form
        if form is None:
            self.vals, self.lo, self.hi = values, 0, side
            self.floor = values.reshape(side, -1).min(axis=1)
            return
        terms, finish = form
        least = terms[0].copy()
        for t in terms[1:]:
            least += t.min()
        floor = finish(least)
        finite = np.isfinite(floor)
        floor[finite] -= 1e-9 * (1.0 + np.abs(floor[finite]))
        self.floor = floor
        self.vals, self.lo, self.hi = np.empty(0), 0, 0

    def cover(self, a: int, b: int) -> bool:
        """Widen the window over slabs [a, b), rebuilt in one batch; whether it widened."""
        if self.lo <= a and b <= self.hi:
            return False
        if self.lo < self.hi:
            a, b = min(a, self.lo), max(b, self.hi)
        terms, finish = self.form
        self.vals = finish(GridOracle.outer_sum([terms[0][a:b], *terms[1:]]))
        self.floor[a:b] = self.vals.reshape(b - a, -1).min(axis=1)
        self.lo, self.hi = a, b
        return True

    def span(self, a: int, b: int) -> np.ndarray:
        """f over slabs [a, b) of the window, in flat order."""
        return self.vals[(a - self.lo) * self.size : (b - self.lo) * self.size]

    def at(self, flat: np.ndarray) -> np.ndarray:
        """f at flat indices inside the window."""
        return self.vals[flat - self.lo * self.size if self.lo else flat]


def _slabs(f: Objective, oracle: GridOracle) -> _Slabs:
    """f's slabs: built on demand from f's separable form, else the whole grid at once.

    A NaN term takes the whole-array path, which reports it.
    """
    form = _form(f, oracle)
    if form is not None and not any(np.isnan(t).any() for t in form[0]):
        return _Slabs(oracle, form=form)
    return _Slabs(oracle, _grid_values(f, oracle))


def _total_values(
    f: Objective,
    oracle: GridOracle,
    parts: list[np.ndarray],
    slabs: _Slabs,
    refs: tuple[int, ...],
    level: float,
) -> tuple[int, float, np.ndarray, np.ndarray]:
    """The flat argmin of f + g_a, the lowest total, and the flat indices (in
    flat order) and totals of points that hold every total <= lowest + level.

    parts are g_a's per-axis terms, slabs f's values (no NaN).  As g_a >= 0
    and rounding is monotone, no total is below f at its point, nor, in
    leading-axis slab s, below the bound ((parts[0][s] + min parts[1]) + ...)
    + slabs.floor[s].  The least total at refs and at the lowest-bound point
    of the window is >= lowest, so g_a + f is summed only from the first to
    the last slab whose bound is <= it + level, where f is <= it + level
    too.  Slabs there that the window lacks are built first, which raises
    their floors to their minima; the range is then taken again, and is
    the one the whole grid's slab minima give.  The argmin (first flat index
    on ties), the totals and the checks (a NaN total, +inf everywhere, a
    total below f's lower bound) are the whole grid's.
    """

    def totals(flat: np.ndarray) -> np.ndarray:
        vals = oracle.sum_at(parts, flat)
        vals += slabs.at(flat)
        return vals

    def bounds() -> np.ndarray:
        bound = parts[0]
        for part in parts[1:]:
            bound = bound + part.min()
        return bound + slabs.floor

    bound = bounds()
    s = slabs.lo + int(np.argmin(bound[slabs.lo : slabs.hi]))
    corner = (s, *(int(np.argmin(part)) for part in parts[1:]))
    reference = float(totals(np.array([*refs, np.ravel_multi_index(corner, oracle._shape)])).min())
    # A NaN bound is a NaN term, or +inf terms over a slab where f is -inf.
    if math.isnan(reference) or np.isnan(bound).any():
        raise OrliczError("objective returned NaN on the grid")
    cut = reference + level
    near = np.flatnonzero(bound <= cut)  # never empty: it holds the reference point's slab
    if slabs.cover(near[0], near[-1] + 1):
        near = np.flatnonzero(bounds() <= cut)
    lo, hi = near[0], near[-1] + 1
    flat = lo * slabs.size + np.flatnonzero(slabs.span(lo, hi) <= cut)
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
    # f is fixed: its slabs, first argmin (a NaN slab minimum marks a NaN)
    # and M(|axis|) are taken once per solve.  Slabs built on demand start
    # with the one of least floor, then every slab whose floor is at or
    # below that slab's minimum: the others cannot hold f's first argmin.
    slabs = _slabs(f, oracle)
    s = int(np.argmin(slabs.floor))
    if slabs.cover(s, s + 1):
        near = np.flatnonzero(slabs.floor <= slabs.floor[s])
        slabs.cover(near[0], near[-1] + 1)
        s = int(np.argmin(slabs.floor))
    k_f = s * slabs.size + int(np.argmin(slabs.span(s, s + 1)))
    if math.isnan(slabs.at(k_f)):
        raise OrliczError("objective returned NaN on the grid")
    m_axis = _terms(M, oracle.axis)

    def round_totals(weights: PerturbationWeights, refs: tuple[int, ...], level: float):
        # No weights: terms -0.0, so totals are f bit for bit (0 * inf is NaN).
        m = m_axis if weights.sup_norm > 0.0 else np.full_like(m_axis, -0.0)
        parts = [weights.weight_at(i) * m for i in oracle.indices]
        return _total_values(f, oracle, parts, slabs, refs, level)

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

    # f1 = f - eps_hi * sigma, +inf outside the ball (where f and sigma may
    # both be inf), from f's values or f's summed terms and finish (read
    # after the sums of sigma and sigma(x/r), which may be the same array).
    def shifted_values(fvals, sigma, scaled, finish=None):
        outside = scaled > 1.0
        out = sigma * eps_hi
        if finish is not None:
            fvals = finish(fvals)
        with np.errstate(invalid="ignore"):  # inf - inf happens outside the ball only
            np.subtract(fvals, out, out=out)
        out[outside] = math.inf
        return out

    # sigma is separable for every M, so f1 has a grid evaluator when f has a
    # dense one: one pass over the sums of f's terms, sigma and sigma(x/r)
    # when f has a separable form, else over sigma's two and f's values,
    # only read (a user eval_grid may keep them).  Otherwise the engine
    # sweeps shifted row by row, which calls f inside the domain ball only.
    def shifted_grid(oracle: GridOracle) -> np.ndarray:
        form = _form(f, oracle)
        values = None if form is not None else _grid_values(f, oracle)
        with np.errstate(over="ignore"):  # for a tiny r, axis / r may pass the float range: inf
            scaled = oracle.axis / radius_slack
        d = len(oracle.indices)
        sigmas = [[_terms(M, oracle.axis)] * d, [_terms(M, scaled)] * d]
        if form is None:
            return oracle.separable(sigmas, shifted_values, values)
        terms, finish = form
        return oracle.separable([terms, *sigmas], functools.partial(shifted_values, finish=finish))

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
