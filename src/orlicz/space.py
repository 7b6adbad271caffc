"""Modular and Luxemburg norm machinery for Orlicz sequence spaces.

The modular is sigma(x) = sum M(|x_n|); the norm is the Minkowski gauge
of the modular unit ball, inf{rho > 0 : sigma(x/rho) <= 1}.  Both are
exact finite sums here because every sequence has finite support.
"""

from __future__ import annotations

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
    return float(_norm_block(M, absvals, absvals.max(axis=1), tol)[0])


def modular_dense(M: OrliczFunction, rows: np.ndarray) -> np.ndarray:
    """Row-wise modular of a dense (n, d) block; a term or sum that overflows is +inf."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    with np.errstate(over="ignore"):
        return np.asarray(M.eval(np.abs(rows)), dtype=float).sum(axis=1)


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
    out = np.zeros(len(rows), dtype=float)
    for s in range(0, len(rows), _BLOCK_ROWS):
        a = np.abs(rows[s : s + _BLOCK_ROWS])
        vmax = a.max(axis=1, initial=0.0)
        nz = vmax > 0.0
        if nz.all():
            out[s : s + len(a)] = _norm_block(M, a, vmax, tol)
        elif nz.any():
            out[s : s + len(a)][nz] = _norm_block(M, a[nz], vmax[nz], tol)
    return out


def _sigma(M: OrliczFunction, t: np.ndarray) -> np.ndarray:
    return np.asarray(M.eval(t), dtype=float).sum(axis=1)


def _norm_block(
    M: OrliczFunction, a: np.ndarray, vmax: np.ndarray, tol: float, level: float = 1.0
) -> np.ndarray:
    """Per row of a block a >= 0 with row maxima vmax > 0, rho with sigma(a/rho) = level."""
    if M.power is not None:
        # (s sum a^p / level)^(1/p), scaled by the row max so that neither
        # a^p underflows nor overflows.
        p = M.power[0]
        if p == 1.0:  # rho is the modular itself
            return modular_dense(M, a) / level
        return vmax * (_sigma(M, a / vmax[:, None]) / level) ** (1.0 / p)
    small = vmax < np.finfo(float).tiny
    if small.any():
        # For a subnormal row max, vmax/t_bar may underflow to 0: solve those
        # rows scaled by 2^64, which is exact, and scale their rho back.
        scale = np.where(small, 2.0 ** 64, 1.0)
        return _norm_block(M, a * scale[:, None], vmax * scale, tol, level) / scale
    # sigma(a/rho) > level at rho = vmax/(t_bar max(level, 1)): the largest
    # term alone is M(max(level, 1) t_bar) >= max(level, 1) M(t_bar) by
    # convexity.
    rho = vmax / (M.t_bar * max(level, 1.0))
    if M.deriv1 is None:
        # Start within a factor 2 of the root: without it a steep M, such as
        # expm1(354 t), creeps from the guard by tiny steps.
        for _ in range(_NORM_MAX_ITER):
            up = _sigma(M, a / (2.0 * rho)[:, None]) > level
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
    # q only shrinks and each of these steps holds.  q < 1 by convexity;
    # should a wrong M' break that, the row takes the rho-form step too, and
    # a slope or step that leaves (0, inf) raises.
    out = np.empty_like(rho)
    live = np.arange(len(rho))
    for _ in range(_NORM_MAX_ITER):
        t = a / rho[:, None]
        sigma = _sigma(M, t)
        if M.deriv1 is None:
            phi, slope = (sigma - level) * _FD_STEP, _sigma(M, (1.0 + _FD_STEP) * t) - sigma
        else:
            phi, slope = sigma - level, (np.asarray(M.deriv1(t), dtype=float) * t).sum(axis=1)
        if not 0.0 < slope.min() <= slope.max() < np.inf:
            raise OrliczError("the slope of sigma(x/rho) left (0, inf); check M")
        q = phi / slope
        rho = np.divide(rho, 1.0 - q, out=rho * (1.0 + q), where=(q > 0.0) & (q < 1.0))
        if not 0.0 < rho.min() <= rho.max() < np.inf:
            raise OrliczError("Newton step for the norm left (0, inf); check M")
        # The step is q of the new rho, so this stops once it is within tol.
        done = q <= tol
        if done.all():
            out[live] = rho
            return out
        if done.any():
            out[live[done]] = rho[done]
            keep = ~done
            a, rho, live = a[keep], rho[keep], live[keep]
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
    m = max(0, math.ceil(math.log2(K)))
    while 2.0 ** m < K:  # guard against log2 rounding at dyadic K
        m += 1
    big = float(M.eval(2.0 ** m * M.t_bar))
    small = float(M.eval(2.0 ** (-m) * M.t_bar))
    if small <= 0.0:
        raise OrliczError(f"M(2^-{m} t_bar) vanished; bound unavailable")
    return C ** (-m) + big / small


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
        factor = float(1.0 / _norm_block(M, absvals, absvals.max(axis=1), tol, target)[0])
    y = x.scale(factor) if 0.0 < factor < math.inf else SparseSequence()
    if not y:
        raise DomainError(f"no multiple of x in the float range has modular {target!r}")
    return y
