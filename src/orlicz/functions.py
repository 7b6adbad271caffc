"""Orlicz functions as first-class values.

An Orlicz function M is continuous, non-decreasing and convex on [0, inf)
with M(0) = 0 and M(t) -> inf.  Instances carry a threshold t_bar
(t_bar > 1 and M(t_bar) > 1) and, when the family admits one, an exact
doubling constant C in (0, 1) with M(t) >= C * M(2t) on [0, t_bar].
Evaluation callables accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateFunctionError, DomainError

__all__ = [
    "OrliczFunction",
    "make_power",
    "make_non_delta2",
    "find_t_bar",
    "estimate_delta2_constant",
    "delta2_ratio_table",
    "parse_family",
]

# Knot of the exponential family's affine extension.
_KNOT = 0.25
_E4 = math.exp(-4.0)

_T_BAR_SCAN_LIMIT = 64


def _scalarize(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def _fd_step(t: float) -> float:
    return max(1e-8, 1e-6 * t)


@dataclass(frozen=True)
class OrliczFunction:
    """A concrete Orlicz function with optional analytic derivatives.

    eval, deriv1, deriv2 are vectorized callables on t >= 0.  Missing
    derivatives fall back to central differences with step
    h = max(1e-8, 1e-6 t), which fails (by design) too close to 0.
    power is (p, scale) when M(t) = scale * t**p, which gives the norm a
    closed form.
    """

    eval: Callable
    t_bar: float
    family_tag: str
    deriv1: Optional[Callable] = None
    deriv2: Optional[Callable] = None
    delta2_constant: Optional[float] = None
    power: Optional[tuple[float, float]] = None

    def __call__(self, t):
        return self.eval(t)

    def d1(self, t: float) -> float:
        if self.deriv1 is not None:
            return float(self.deriv1(t))
        h = _fd_step(t)
        if t - h < 0.0:
            raise DomainError(f"finite difference for M' leaves [0, inf) at t={t!r}")
        return (float(self.eval(t + h)) - float(self.eval(t - h))) / (2.0 * h)

    def d2(self, t: float) -> float:
        if self.deriv2 is not None:
            return float(self.deriv2(t))
        h = _fd_step(t)
        if t - h < 0.0:
            raise DomainError(f"finite difference for M'' leaves [0, inf) at t={t!r}")
        num = float(self.eval(t + h)) - 2.0 * float(self.eval(t)) + float(self.eval(t - h))
        return num / (h * h)


def _scan_t_bar(eval_fn: Callable) -> float:
    # First t in {2, 4, 8, ...} with M(t) > 1; every scan point already has t > 1.
    for j in range(1, _T_BAR_SCAN_LIMIT + 1):
        t = float(2.0 ** j)
        v = float(eval_fn(t))
        if not math.isfinite(v):
            raise DegenerateFunctionError(f"M({t}) is not finite during the t_bar scan")
        if v > 1.0:
            return t
    raise DegenerateFunctionError(
        "no t <= 2**64 with M(t) > 1; M appears bounded or degenerate"
    )


def find_t_bar(M: OrliczFunction) -> float:
    """Smallest t in the scan sequence {2^j} with t > 1 and M(t) > 1."""
    return _scan_t_bar(M.eval)


def make_power(p: float, scale: float = 1.0) -> OrliczFunction:
    """M(t) = scale * t**p.  Convex for p >= 1; doubling constant 2**-p."""
    if p < 1.0:
        raise DomainError(f"power family needs p >= 1, got {p}")
    if scale <= 0.0 or not math.isfinite(scale):
        raise DomainError(f"power family needs scale > 0, got {scale}")

    def evaluate(t):
        return _scalarize(scale * np.asarray(t, dtype=float) ** p)

    def deriv1(t):
        # 0**0 == 1.0, so p == 1 yields the constant slope at t = 0 as well.
        return _scalarize(scale * p * np.asarray(t, dtype=float) ** (p - 1.0))

    def deriv2(t):
        arr = np.asarray(t, dtype=float)
        if p == 1.0:
            return _scalarize(np.zeros_like(arr))
        return _scalarize(scale * p * (p - 1.0) * arr ** (p - 2.0))

    tag = f"power:{p:g}" if scale == 1.0 else f"power:{p:g}:{scale:g}"
    return OrliczFunction(
        eval=evaluate,
        deriv1=deriv1,
        deriv2=deriv2,
        t_bar=_scan_t_bar(evaluate),
        delta2_constant=2.0 ** (-p),
        family_tag=tag,
        power=(float(p), float(scale)),
    )


def make_non_delta2() -> OrliczFunction:
    """exp(-1/t) near 0, continued past t = 1/4 by its tangent line.

    The tangent at 1/4 has slope 16 e^-4, so the extension is
    e^-4 (16 t - 3): convex, C^1 at the knot, and unbounded.  The ratio
    M(t)/M(2t) = exp(-1/(2t)) collapses as t -> 0, so no doubling
    constant exists and none is attached.
    """

    def evaluate(t):
        arr = np.asarray(t, dtype=float)
        safe = np.where(arr > 0.0, arr, 1.0)
        with np.errstate(over="ignore"):  # 1/t overflows below ~5e-309; exp(-inf)=0 is right
            inner = np.where(arr > 0.0, np.exp(-1.0 / safe), 0.0)
        outer = _E4 * (16.0 * arr - 3.0)
        return _scalarize(np.where(arr <= _KNOT, inner, outer))

    def deriv1(t):
        # exp(-1/t)/t^2 via the log form: the naive quotient is 0/0 once
        # t^2 underflows, while exp(-1/t - 2 log t) decays cleanly to 0.
        arr = np.asarray(t, dtype=float)
        safe = np.where(arr > 0.0, arr, 1.0)
        with np.errstate(over="ignore"):
            inner = np.where(arr > 0.0, np.exp(-1.0 / safe - 2.0 * np.log(safe)), 0.0)
        return _scalarize(np.where(arr <= _KNOT, inner, 16.0 * _E4))

    def deriv2(t):
        # One-sided at the knot: the affine branch has curvature 0.
        arr = np.asarray(t, dtype=float)
        safe = np.where(arr > 0.0, arr, 1.0)
        with np.errstate(over="ignore"):
            inner = np.where(
                arr > 0.0,
                np.exp(-1.0 / safe - 4.0 * np.log(safe)) * (1.0 - 2.0 * safe),
                0.0,
            )
        return _scalarize(np.where(arr <= _KNOT, inner, 0.0))

    return OrliczFunction(
        eval=evaluate,
        deriv1=deriv1,
        deriv2=deriv2,
        t_bar=_scan_t_bar(evaluate),
        delta2_constant=None,
        family_tag="non-delta2",
    )


def delta2_ratio_table(
    M: OrliczFunction, grid_size: int = 64, t_min: float = 1e-6
) -> list[tuple[float, float]]:
    """(t, M(t)/M(2t)) over a log grid on [t_min, t_bar].

    Grid points where M(2t) is 0 (underflow, or a degenerate stretch) carry
    no information and are dropped.
    """
    if grid_size < 16:
        raise DomainError(f"grid_size must be >= 16, got {grid_size}")
    if not (0.0 < t_min < M.t_bar):
        raise DomainError(f"t_min must lie in (0, t_bar={M.t_bar}), got {t_min}")
    ts = np.geomspace(t_min, M.t_bar, grid_size)
    num = np.asarray(M.eval(ts), dtype=float)
    den = np.asarray(M.eval(2.0 * ts), dtype=float)
    bad = ~np.isfinite(num) | ~np.isfinite(den)
    if bad.any():
        t_bad = float(ts[int(np.argmax(bad))])
        raise DegenerateFunctionError(f"M evaluation not finite at t={t_bad!r}")
    rows = [
        (float(t), float(n) / float(d))
        for t, n, d in zip(ts, num, den)
        if d > 0.0
    ]
    if not rows:
        raise DegenerateFunctionError("M(2t) vanished on the whole scan grid")
    return rows


def estimate_delta2_constant(
    M: OrliczFunction,
    grid_size: int = 64,
    t_min: float = 1e-6,
    floor: float = 1e-6,
) -> Optional[float]:
    """Grid estimate of C with M(t) >= C M(2t) near 0; None on apparent failure.

    This is an estimate, never a certificate: the verdict is None when the
    ratios at the smallest grid points decrease weakly toward t = 0 and land
    below `floor`.  Families whose genuine constant sits below the floor are
    indistinguishable from collapse at this resolution; raise the floor or
    shrink t_min to look closer.
    """
    rows = delta2_ratio_table(M, grid_size=grid_size, t_min=t_min)
    ratios = [r for _, r in rows]
    head = ratios[:6]
    collapsing = head[0] < floor and all(
        head[i] <= head[i + 1] * (1.0 + 1e-9) for i in range(len(head) - 1)
    )
    if collapsing:
        return None
    return min(ratios)


def parse_family(text: str) -> OrliczFunction:
    """Family literal -> function: "power:1.5", "power:1:0.25", "non-delta2"."""
    parts = text.strip().split(":")
    name = parts[0].strip().lower()
    if name == "non-delta2":
        if len(parts) > 1:
            raise DomainError(f"non-delta2 takes no parameters, got {text!r}")
        return make_non_delta2()
    if name == "power":
        if len(parts) not in (2, 3):
            raise DomainError(f"power family needs an exponent, got {text!r}")
        try:
            p = float(parts[1])
            scale = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise DomainError(f"bad numeric field in family {text!r}") from exc
        return make_power(p, scale=scale)
    raise DomainError(f"unknown function family {text!r}")
