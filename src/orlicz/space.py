"""Modular and Luxemburg norm machinery for Orlicz sequence spaces.

The modular is sigma(x) = sum M(|x_n|); the norm is the Minkowski gauge
of the modular unit ball, inf{rho > 0 : sigma(x/rho) <= 1}.  Both are
exact finite sums here because every sequence has finite support.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import Delta2RequiredError, DomainError, OrliczError
from .functions import OrliczFunction
from .sequences import SparseSequence

__all__ = [
    "modular",
    "luxemburg_norm",
    "luxemburg_norm_dense",
    "modular_dense",
    "project_head",
    "project_tail",
    "nu_bound",
    "phi_bound",
    "scale_to_modular",
]

_NORM_MAX_ITER = 200
# Machine epsilon: the norms' default tolerance is full double precision.
_FULL_PRECISION = 2.0 ** -52
# Rows per block of the dense norm, which bounds the size of its temporaries.
_BLOCK_ROWS = 1024
# Relative step of the forward difference that stands in for M'.
_FD_STEP = 2.0 ** -13


def modular(M: OrliczFunction, x: SparseSequence) -> float:
    """sigma_M(x) = sum over the support of M(|x_n|): a one-row call of modular_dense."""
    return float(modular_dense(M, np.array(x.values(), dtype=float))[0])


def luxemburg_norm(
    M: OrliczFunction, x: SparseSequence, tol: float = _FULL_PRECISION
) -> float:
    """Gauge of the modular unit ball: a one-row call of the dense kernel.

    With the default tol it equals luxemburg_norm_dense of the same row.
    A row stops once its u-step moves rho by at most tol of the new rho, or
    once it has stepped back from past the root; this holds with M' and
    with the forward difference that stands in for it.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    if not x.entries:
        return 0.0
    absvals = np.abs(np.array(x.values(), dtype=float))[None, :]
    return float(_norm_rows(M, [absvals], absvals.max(axis=1), tol)[0])


def _terms(M: OrliczFunction, values) -> np.ndarray:
    """M(|values|) as a float array; a term past the float range is +inf, silently."""
    with np.errstate(over="ignore"):
        return np.asarray(M.eval(np.abs(values)), dtype=float)


def modular_dense(M: OrliczFunction, rows: np.ndarray) -> np.ndarray:
    """Row-wise modular of a dense (n, d) block; a term or sum that overflows is +inf."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    with np.errstate(over="ignore"):  # finite terms may sum past the float range
        return _terms(M, rows).sum(axis=1)


def luxemburg_norm_dense(
    M: OrliczFunction, rows: np.ndarray, tol: float = _FULL_PRECISION
) -> np.ndarray:
    """Row-wise Luxemburg norm of a dense (n, d) block.

    Power families take the closed form; every other M is solved per row by
    Newton's method on sigma(u x) = 1 in u = 1/rho, with sum M'(t) t as the
    slope, or a forward difference of sigma when M carries no derivative.
    Rows go through in blocks of 1024, which bounds the temporaries.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    return _norms(M, [rows], tol)[0]


def _norms(M: OrliczFunction, blocks: list, tol: float = _FULL_PRECISION) -> list:
    """Per block of rows, of any widths, each row's Luxemburg norm.

    Blocks of one width are stacked, and the nonzero rows go to _norm_rows
    through _batches.  A row's norm depends on its entries and its block's
    width only, not on the rest of the batch.
    """
    widths = {}
    for k, b in enumerate(blocks):
        widths.setdefault(b.shape[1], []).append(k)
    stacks = [np.concatenate([blocks[k] for k in ks]) if len(ks) > 1 else blocks[ks[0]] for ks in widths.values()]

    def nonzero_rows(k, s, e):
        a = np.abs(stacks[k][s:e])
        m = a.max(axis=1, initial=0.0)
        nz = m > 0.0
        if np.count_nonzero(nz) == len(nz):
            return slice(s, e), a, m
        return s + np.flatnonzero(nz), a[nz], m[nz]

    solved = _batches([len(b) for b in stacks], nonzero_rows, lambda rows, vmax: _norm_rows(M, rows, vmax, tol))
    out = [None] * len(blocks)
    for ks, values in zip(widths.values(), solved):
        for k, v in zip(ks, _split(values, [blocks[k] for k in ks])):
            out[k] = v
    return out


def _sigmas(M: OrliczFunction, tests: list) -> list:
    """Per sigma test (rows, ii, jj, rho), sigma((rows[ii] - rows[jj]) / rho)
    pair by pair, summed at the width of its rows; a term that overflows
    reads inf.

    ii, jj and rho broadcast to one entry per pair, and rho > 0.  The pairs
    go through _batches, and M is evaluated at their nonzero differences
    only, packed as in a Newton pass.
    """
    tests = [(rows, *np.broadcast_arrays(ii, jj, rho)) for rows, ii, jj, rho in tests]

    def differences(k, s, e):
        rows, ii, jj, rho = tests[k]
        return slice(s, e), np.abs(rows[ii[s:e]] - rows[jj[s:e]]), rho[s:e]

    def sigma(blocks, rho):
        entries, row, layout = _pack(blocks)
        return _sums(M.eval(entries / rho[row]), layout)

    with np.errstate(over="ignore"):
        return _batches([len(t[1]) for t in tests], differences, sigma)


def _batches(lengths: list, rows, solve) -> list:
    """Per block of these lengths, one value per row, 0 where rows leaves it out.

    The rows go to solve in batches of at most 1024, cut from the blocks in
    order, which bounds the temporaries.  rows(k, s, e) gives (where, a, x)
    for rows s:e of block k: where the rows to solve are, as a block a >= 0,
    and one input x per row; solve takes a batch's list of a and their x
    concatenated, and gives one value per row.
    """
    out, starts = [np.zeros(n) for n in lengths], list(itertools.accumulate(lengths, initial=0))
    for lo in range(0, starts[-1], _BLOCK_ROWS):
        places, blocks, inputs = [], [], []
        for k, n in enumerate(lengths):
            s, e = max(lo - starts[k], 0), min(lo + _BLOCK_ROWS - starts[k], n)
            if s < e:
                where, a, x = rows(k, s, e)
                if len(a):
                    places.append((k, where))
                    blocks.append(a)
                    inputs.append(x)
        if blocks:
            values = solve(blocks, np.concatenate(inputs) if len(inputs) > 1 else inputs[0])
            for (k, where), v in zip(places, _split(values, blocks)):
                out[k][where] = v
    return out


def _split(values: np.ndarray, blocks: list) -> list:
    """A vector of one value per row of the blocks, cut into one per block."""
    if len(blocks) == 1:
        return [values]
    return np.split(values, np.cumsum([len(a) for a in blocks[:-1]]))


def _pack(blocks: list) -> tuple:
    """(entries, row, layout) for a pass of M: what it divides by rho, the
    index into rho of each entry's row (or an index that broadcasts), and
    where _sums finds each row's terms (None: the terms are the rows).

    A lone block without zeros is passed as it is.  Otherwise the entries
    are one 0, then each block's nonzero entries row by row, and the 0's
    term stands in for every zero: the sums add the same terms in the same
    order as over the whole rows.  (0/rho = 0 for a sigma test's rho > 0
    and every rho the Newton loop keeps; a start rho that underflows to 0
    fails a slope or bracketing test with any term for the zeros.)
    """
    if len(blocks) == 1 and np.count_nonzero(blocks[0]) == blocks[0].size:
        return blocks[0], (slice(None), None), None
    entries, places, layout = [np.zeros(1)], [], []
    at = 1
    for a in blocks:
        p = (a > 0.0).ravel().nonzero()[0]
        index = np.zeros(a.size, dtype=np.intp)
        index[p] = np.arange(at, at + p.size)
        layout.append(index.reshape(a.shape))
        entries.append(a.ravel()[p])
        places.append(p)
        at += p.size
    if len(blocks) == 1 and len(blocks[0]) == 1:
        return np.concatenate(entries), slice(None), layout
    rows, first = [np.zeros(1, dtype=np.intp)], 0
    for a, p in zip(blocks, places):
        rows.append(first + p // a.shape[1])
        first += len(a)
    return np.concatenate(entries), np.concatenate(rows), layout


def _sums(terms, layout) -> np.ndarray:
    """Each row's sum of its terms, laid out by _pack, at its block's width."""
    terms = np.asarray(terms, dtype=float)
    if layout is None:
        return terms.sum(axis=1)
    if len(layout) == 1:
        return terms[layout[0]].sum(axis=1)
    return np.concatenate([terms[index].sum(axis=1) for index in layout])


def _norm_rows(
    M: OrliczFunction, blocks: list, vmax: np.ndarray, tol: float, level: float = 1.0
) -> np.ndarray:
    """Per row of blocks a >= 0 of any widths, with row maxima vmax > 0
    (concatenated over the blocks), rho with sigma(a/rho) = level.

    Power families take the closed form.  Otherwise one Newton loop solves
    every row of the batch, packed once: each pass is one M.eval and one M'
    or one more M.eval over the nonzero entries of every row.
    """
    if M.power is not None:
        if len(blocks) > 1:  # the closed form goes block by block
            return np.concatenate([_norm_rows(M, [a], m, tol, level) for a, m in zip(blocks, _split(vmax, blocks))])
        # (s sum a^p / level)^(1/p), scaled by the row max so that neither
        # a^p underflows nor overflows.
        p = M.power[0]
        if p == 1.0:  # rho is the modular itself
            return modular_dense(M, blocks[0]) / level
        return vmax * (np.asarray(M.eval(blocks[0] / vmax[:, None]), dtype=float).sum(axis=1) / level) ** (1.0 / p)
    small = vmax < np.finfo(float).tiny
    if np.count_nonzero(small):
        # For a subnormal row max, vmax/t_bar may underflow to 0: solve those
        # rows scaled by 2^64, which is exact, and scale their rho back.
        scale = np.where(small, 2.0 ** 64, 1.0)
        scaled = [a * s[:, None] for a, s in zip(blocks, _split(scale, blocks))]
        return _norm_rows(M, scaled, vmax * scale, tol, level) / scale
    entries, row, layout = _pack(blocks)
    # sigma(a/rho) > level at rho = vmax/(t_bar max(level, 1)): the largest
    # term alone is M(max(level, 1) t_bar) >= max(level, 1) M(t_bar) by
    # convexity.
    rho = vmax / (M.t_bar * max(level, 1.0))
    if M.deriv1 is None:
        # Start within a factor 2 of the root: without it a steep M, such as
        # expm1(354 t), creeps from the guard by tiny steps.
        for _ in range(_NORM_MAX_ITER):
            up = _sums(M.eval(entries / (2.0 * rho)[row]), layout) > level
            if not up.any():
                break
            rho[up] *= 2.0
        else:
            raise OrliczError("bracketing failed: sigma(x/rho) stayed above the level")
    # Newton on phi(u) = sigma(u a) - level in u = 1/rho, which is convex and
    # increasing.  With t = a/rho and q = phi / sum M'(t) t, the step is
    # rho -> rho/(1 - q): from the left of the root (q > 0) it climbs and
    # passes the root only by rounding, and it is exact where every term is
    # affine.  A row past the root (q <= 0) takes one step of Newton in rho,
    # rho -> rho(1 + q), which by convexity lands on the left, and stops.
    # Without M', the forward difference (sigma((1 + h) t) - sigma(t)) / h
    # takes the place of sum M'(t) t, with phi and slope both kept times h
    # so that the slope cannot overflow.  By convexity it is the larger, so
    # q only shrinks and each of these steps holds.  q < 1 by convexity; should
    # a wrong M' break that, the row takes the rho-form step too, and a slope
    # or step that leaves (0, inf) raises.  A done row takes q = 0 from then
    # on: rho(1 + 0) keeps its rho bit for bit, so the packing never changes.
    done = np.zeros(len(rho), dtype=bool)
    for _ in range(_NORM_MAX_ITER):
        t = entries / rho[row]
        sigma = _sums(M.eval(t), layout)
        if M.deriv1 is None:
            phi, slope = (sigma - level) * _FD_STEP, _sums(M.eval((1.0 + _FD_STEP) * t), layout) - sigma
        else:
            phi, slope = sigma - level, _sums(np.asarray(M.deriv1(t), dtype=float) * t, layout)
        if not 0.0 < slope.min() <= slope.max() < np.inf:
            raise OrliczError("the slope of sigma(x/rho) left (0, inf); check M")
        q = np.where(done, 0.0, phi / slope)
        rest = 1.0 - q  # q (1 - q) > 0 just where 0 < q < 1
        rho = np.divide(rho, rest, out=rho * (1.0 + q), where=q * rest > 0.0)
        if not 0.0 < rho.min() <= rho.max() < np.inf:
            raise OrliczError("Newton step for the norm left (0, inf); check M")
        # The step is q of the new rho, so a row is done once it is within tol.
        done = q <= tol
        if np.count_nonzero(done) == len(done):
            return rho
    raise OrliczError("Newton iteration for the norm did not converge")


def project_head(x: SparseSequence, n: int) -> SparseSequence:
    """Keep entries with index <= n."""
    if n < 0:
        raise DomainError(f"projection cutoff must be >= 0, got {n}")
    return SparseSequence(tuple((i, v) for i, v in x.entries if i <= n))


def project_tail(x: SparseSequence, n: int) -> SparseSequence:
    """Keep entries with index > n."""
    if n < 0:
        raise DomainError(f"projection cutoff must be >= 0, got {n}")
    return SparseSequence(tuple((i, v) for i, v in x.entries if i > n))


def _require_constant(M: OrliczFunction) -> float:
    if M.delta2_constant is None:
        raise Delta2RequiredError(
            f"family {M.family_tag!r} carries no doubling constant"
        )
    return M.delta2_constant


def nu_bound(M: OrliczFunction, K: float) -> float:
    """Majorant of the modular over the ball of norm radius K.

    Splits a point of the 2^m-ball (m smallest with 2^m >= K, floored at 0)
    into coordinates above and below t_bar: at most M(2^m t_bar)/M(2^-m t_bar)
    of modular mass can sit above, and the doubling constant iterated m times
    caps the rest by C^-m.
    """
    if K <= 0.0 or not math.isfinite(K):
        raise DomainError(f"radius K must be positive and finite, got {K}")
    C = _require_constant(M)
    m = max(0, math.frexp(math.nextafter(K, 0.0))[1])  # the least m >= 0 with 2^m >= K
    small = float(M.eval(np.ldexp(M.t_bar, -m)))
    if small <= 0.0:
        raise OrliczError(f"M(2^-{m} t_bar) vanished; bound unavailable")
    with np.errstate(over="ignore"):  # a bound that overflows is refused below
        bound = float(np.float64(C) ** -m + M.eval(np.ldexp(M.t_bar, m)) / small)
    if bound == math.inf:
        raise OrliczError(f"the majorant over the 2^{m}-ball overflowed; bound unavailable")
    return bound


def phi_bound(M: OrliczFunction, t: float) -> float:
    """Diameter bound 2^(1-m) for the modular sublevel set at height t.

    m is the largest integer >= 0 with C^m >= t: points with modular <= C^m
    have norm <= 2^-m (iterate the doubling inequality), so the sublevel set
    sits inside that ball and its diameter is at most twice the radius.
    Monotone non-decreasing in t; 2 for t >= 1.
    """
    if t <= 0.0 or not math.isfinite(t):
        raise DomainError(f"level t must be positive and finite, got {t}")
    C = _require_constant(M)
    m = 0
    power = C
    # Multiplicative accumulation keeps C^m exact to the same float sequence
    # the perturbation scan produces, so boundary levels resolve identically.
    while power >= t and m < 4096:
        m += 1
        power *= C
    return 2.0 ** (1 - m)


def scale_to_modular(
    M: OrliczFunction, x: SparseSequence, target: float, tol: float = 1e-12
) -> SparseSequence:
    """Scale x so its modular hits target: x/rho with sigma(x/rho) = target.

    rho is solved by the norm kernel with target in place of 1, so tol is
    the same relative step as in luxemburg_norm.  A target whose rho or 1/rho
    leaves the float range, or whose x/rho underflows to 0, is refused.
    """
    if target <= 0.0:
        raise DomainError(f"target modular must be > 0, got {target}")
    if not x.entries:
        raise DomainError("cannot scale the zero sequence to a positive modular")
    absvals = np.abs(np.array(x.values(), dtype=float))[None, :]
    with np.errstate(over="ignore", divide="ignore"):  # out of range: refused below
        factor = float(1.0 / _norm_rows(M, [absvals], absvals.max(axis=1), tol, target)[0])
    y = x.scale(factor) if 0.0 < factor < math.inf else SparseSequence()
    if not y:
        raise DomainError(f"no multiple of x in the float range has modular {target!r}")
    return y
