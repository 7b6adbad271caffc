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


def modular(M: OrliczFunction, x: SparseSequence) -> float:
    """sigma_M(x) = sum over the support of M(|x_n|): a one-row call of modular_dense."""
    return float(modular_dense(M, np.array(x.values(), dtype=float))[0])


def luxemburg_norm(
    M: OrliczFunction, x: SparseSequence, tol: float = _FULL_PRECISION
) -> float:
    """Gauge of the modular unit ball: a one-row call of the dense kernel.

    With the default tol it equals luxemburg_norm_dense of the same row.
    Newton stops a row once its step moves rho by at most tol of the new
    rho, or once it has stepped back from past the root; when M has no
    derivative and the kernel bisects, tol is the relative bracket width.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    if not x.entries:
        return 0.0
    absvals = np.abs(np.array(x.values(), dtype=float))[None, :]
    return float(_norm_block(M, absvals, absvals.max(axis=1), tol)[0])


def modular_dense(M: OrliczFunction, rows: np.ndarray) -> np.ndarray:
    """Row-wise modular of a dense (n, d) block."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    return np.asarray(M.eval(np.abs(rows)), dtype=float).sum(axis=1)


def luxemburg_norm_dense(
    M: OrliczFunction, rows: np.ndarray, tol: float = _FULL_PRECISION
) -> np.ndarray:
    """Row-wise Luxemburg norm of a dense (n, d) block.

    Power families take the closed form; every other M is solved per row by
    Newton's method on sigma(u x) = 1 in u = 1/rho, or by bisection when M
    carries no derivative.  Rows go through in blocks of 1024, which bounds
    the temporaries.
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


def _sigma(M: OrliczFunction, a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.asarray(M.eval(a / rho[:, None]), dtype=float).sum(axis=1)


def _norm_block(
    M: OrliczFunction, a: np.ndarray, vmax: np.ndarray, tol: float
) -> np.ndarray:
    """Norms of the rows of a nonnegative block a; every row max vmax > 0."""
    if M.power is not None:
        # (s sum a^p)^(1/p), scaled by the row max so that neither a^p
        # underflows nor overflows.
        p = M.power[0]
        if p == 1.0:  # the norm is the modular itself
            return np.asarray(M.eval(a), dtype=float).sum(axis=1)
        return vmax * _sigma(M, a, vmax) ** (1.0 / p)
    small = vmax < np.finfo(float).tiny
    if small.any():
        # For a subnormal row max, vmax/t_bar may underflow to 0: solve those
        # rows scaled by 2^64, which is exact, and scale their norms back.
        scale = np.where(small, 2.0 ** 64, 1.0)
        return _norm_block(M, a * scale[:, None], vmax * scale, tol) / scale
    # sigma(x/rho) > 1 at rho = vmax/t_bar: the largest term alone is M(t_bar).
    rho = vmax / M.t_bar
    if M.deriv1 is None:
        return _bisect(M, a, rho, tol)
    # Newton on phi(u) = sigma(u a) - 1 in u = 1/rho, which is convex and
    # increasing.  With t = a/rho and q = phi / sum M'(t) t, the step is
    # rho -> rho/(1 - q): from the left of the root (q > 0) it climbs and
    # passes the root only by rounding, and it is exact where every term is
    # affine.  A row past the root (q <= 0) takes one step of Newton in rho,
    # rho -> rho(1 + q), which by convexity lands on the left, and stops.
    # q < 1 by convexity; should a wrong M' break that, the row takes the
    # rho-form step too, and a step that leaves (0, inf) raises.
    out = np.empty_like(rho)
    live = np.arange(len(rho))
    for _ in range(_NORM_MAX_ITER):
        t = a / rho[:, None]
        phi = np.asarray(M.eval(t), dtype=float).sum(axis=1) - 1.0
        q = phi / (np.asarray(M.deriv1(t), dtype=float) * t).sum(axis=1)
        rho = np.where((q > 0.0) & (q < 1.0), rho / (1.0 - q), rho * (1.0 + q))
        if not ((rho > 0.0) & (rho < np.inf)).all():
            raise OrliczError("Newton step for the norm left (0, inf); check M.deriv1")
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


def _bisect(M: OrliczFunction, a: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Bracket by doubling from the left guard hi, then bisect to width tol."""
    for _ in range(_NORM_MAX_ITER):
        need = _sigma(M, a, hi) > 1.0
        if not need.any():
            break
        hi[need] *= 2.0
    else:
        raise OrliczError("bracketing failed: sigma(x/rho) stayed above 1")
    lo = hi / 2.0
    live = np.arange(len(hi))
    for _ in range(_NORM_MAX_ITER):
        # Each row stops at its own width, so its norm does not depend on its block.
        live = live[hi[live] - lo[live] > tol * hi[live]]
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        above = _sigma(M, a[live], mid) > 1.0
        lo[live[above]] = mid[above]
        hi[live[~above]] = mid[~above]
    return 0.5 * (lo + hi)


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
    """Scale x so its modular hits target (bisection on the scale factor)."""
    if target <= 0.0:
        raise DomainError(f"target modular must be > 0, got {target}")
    if not x.entries:
        raise DomainError("cannot scale the zero sequence to a positive modular")
    absvals = np.abs(np.array(x.values(), dtype=float))

    def sig(s: float) -> float:
        return float(np.sum(np.asarray(M.eval(s * absvals), dtype=float)))

    hi = 1.0
    for _ in range(_NORM_MAX_ITER):
        if sig(hi) >= target:
            break
        hi *= 2.0
    else:
        raise OrliczError("modular did not reach the target under upscaling")
    lo = 0.0
    for _ in range(_NORM_MAX_ITER):
        if hi - lo <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if sig(mid) < target:
            lo = mid
        else:
            hi = mid
    return x.scale(0.5 * (lo + hi))
