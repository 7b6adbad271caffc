"""Reference computations made apart from the program, for checking its outputs.

Nothing here imports `orlicz`.  Power families use the closed-form norm
(s * sum |x_n|^p)^(1/p) (Rao & Ren, *Theory of Orlicz Spaces*, 1991).  The
non-delta2 function is written out from its formula, and its Luxemburg norm
is the root of sigma(x/rho) = 1: Brent's method (scipy) for single
sequences, a vectorized Newton iteration of this file for row blocks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

_KNOT = 0.25
_E4 = math.exp(-4.0)
# The affine branch e^-4 (16 t - 3) reaches 1 here, so M(T_ONE) = 1.
T_ONE = (math.exp(4.0) + 3.0) / 16.0


def nd2_M(t):
    """non-delta2: exp(-1/t) on (0, 1/4], tangent line e^-4 (16 t - 3) beyond."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        inner = np.exp(-1.0 / t)
    return np.where(t <= _KNOT, inner, _E4 * (16.0 * t - 3.0))


def nd2_dM(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inner = np.where(t > 0.0, np.exp(-1.0 / t) / (t * t), 0.0)
    return np.where(t <= _KNOT, inner, 16.0 * _E4)


def power_modular(values, p: float) -> float:
    return float(np.sum(np.abs(np.asarray(values, dtype=float)) ** p))


def power_norm(values, p: float) -> float:
    """(sum |x_n|^p)^(1/p) for M(t) = t^p."""
    return power_modular(values, p) ** (1.0 / p)


def nd2_modular(values) -> float:
    return float(np.sum(nd2_M(np.abs(np.asarray(values, dtype=float)))))


def nd2_norm(values) -> float:
    """Luxemburg norm for non-delta2 by Brent's method on sigma(x/rho) - 1.

    Bracket: one coordinate alone needs rho >= max|x|/T_ONE, and since a
    convex M with M(0) = 0 is superadditive, rho = sum|x|/T_ONE already
    gives sigma <= M(T_ONE) = 1.
    """
    a = np.abs(np.asarray(values, dtype=float))
    a = a[a > 0.0]
    if a.size == 0:
        return 0.0
    lo, hi = a.max() / T_ONE, a.sum() / T_ONE
    if hi <= lo * (1.0 + 1e-15):
        return lo
    return brentq(lambda rho: nd2_modular(a / rho) - 1.0, lo, hi, xtol=1e-300, rtol=1e-15)


def nd2_norm_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise non-delta2 norm: safeguarded Newton on log sigma(x/rho) = 0.

    On the exponential branch log sigma is a log-sum-exp of terms linear in
    rho, nearly straight, so Newton needs few steps; a step that leaves the
    bracket of `nd2_norm` is replaced by bisection.
    """
    a = np.abs(np.asarray(rows, dtype=float))
    out = np.zeros(len(a))
    if a.size == 0:
        return out
    width = max(int((a > 0.0).sum(axis=1).max()), 1)
    a = -np.sort(-a, axis=1)[:, :width]  # zeros add nothing to sigma
    live = a[:, 0] > 0.0
    a = a[live]
    lo, hi = a[:, 0] / T_ONE, a.sum(axis=1) / T_ONE
    rho = lo.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            t = a / rho[:, None]
            sigma = nd2_M(t).sum(axis=1)
            psi = np.log(sigma)
            dpsi = -(nd2_dM(t) * t).sum(axis=1) / (rho * sigma)
            lo = np.where(psi >= 0.0, rho, lo)
            hi = np.where(psi <= 0.0, rho, hi)
            new = rho - psi / dpsi
            new = np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi))
            new = np.where(psi == 0.0, rho, new)
            done = np.abs(new - rho) <= 1e-15 * rho
            rho = new
            if done.all():
                break
    residual = np.abs(nd2_M(a / rho[:, None]).sum(axis=1) - 1.0)
    if residual.size and residual.max() > 1e-12:
        raise ArithmeticError(f"reference Newton left residual {residual.max():.3e}")
    out[live] = rho
    return out


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))
