"""Named objective builders for the command line and the test benches."""

from __future__ import annotations

import math

import numpy as np

from .engine import GridOracle, Objective, _SeparableGrid
from .errors import DomainError
from .functions import OrliczFunction
from .sequences import SparseSequence, format_sequence, parse_sequence
from .space import _terms, luxemburg_norm, luxemburg_norm_dense, modular, modular_dense

__all__ = [
    "modular_objective",
    "squared_distance_objective",
    "shifted_ball_objective",
    "inverse_bump_objective",
    "parse_objective",
]


def _norm_objective(
    M: OrliczFunction, from_norm, center: SparseSequence = SparseSequence(), **fields
) -> Objective:
    """The Objective f(x) = from_norm(||x - center||), all evaluators from one formula.

    from_norm maps an array of norms to f's values and may overwrite it; a
    value past the float range is +inf, silently, in all three evaluators.
    eval_dense is from_norm of the dense norms of rows - center; eval is its
    one-row result, from_norm of the scalar norm of x - center, whose default
    tolerance is the dense kernel's.  For a power family, eval_grid is the
    separable form: the per-axis terms s|x_j - c_j|^p, finished by the p-th
    root and from_norm.  These carry no row-max scaling, so when a nonzero
    difference gives a term below the smallest normal float, or the largest
    sum is infinite, there is no form and the grid goes through the streamed
    dense path instead.  fields are the Objective's remaining fields.
    """

    def shift(indices) -> np.ndarray:
        if any(i not in indices for i in center.indices()):
            raise DomainError(
                "grid does not cover the support of z; widen the oracle's index set"
            )
        return np.array([center.value_at(i) for i in indices], dtype=float)

    def phi(norms: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return from_norm(norms)

    def evaluate(x: SparseSequence) -> float:
        norm = luxemburg_norm(M, x - center)
        return float(phi(np.array([norm]))[0])

    def dense(rows: np.ndarray, indices) -> np.ndarray:
        return phi(luxemburg_norm_dense(M, rows - shift(indices)))

    def finish(sums: np.ndarray) -> np.ndarray:
        sums **= 1.0 / M.power[0]
        return phi(sums)

    def form(oracle: GridOracle):
        diffs = [oracle.axis - c for c in shift(oracle.indices)]
        terms = [_terms(M, d) for d in diffs]
        lost = any((t[d != 0.0] < np.finfo(float).tiny).any() for t, d in zip(terms, diffs))
        if lost or not math.isfinite(sum(float(t.max()) for t in terms)):
            return None
        return terms, finish

    return Objective(
        eval=evaluate,
        eval_dense=dense,
        eval_grid=None if M.power is None else _SeparableGrid(form, dense),
        **fields,
    )


def modular_objective(M: OrliczFunction, radius: float = 1.0) -> Objective:
    """f = sigma_M on the radius ball; coercive, minimized at 0."""

    def dense(rows: np.ndarray, indices) -> np.ndarray:
        return modular_dense(M, rows)

    def form(oracle: GridOracle):
        return [_terms(M, oracle.axis)] * len(oracle.indices), lambda sums: sums

    return Objective(
        eval=lambda x: modular(M, x),
        domain_radius=radius,
        lower_bound=0.0,
        eval_dense=dense,
        eval_grid=_SeparableGrid(form, dense),
        coercive=True,
    )


def squared_distance_objective(
    M: OrliczFunction, z: SparseSequence, coercive: bool = True
) -> Objective:
    """f(x) = ||x - z||^2 in the Luxemburg norm; domain ball of radius 2||z||."""
    nz = luxemburg_norm(M, z)
    if nz == 0.0:
        if z:
            raise DomainError(f"target z is nonzero, but its norm underflows to 0: {format_sequence(z)}")
        raise DomainError("target z must be nonzero; use the modular objective for 0")

    def squared(n: np.ndarray) -> np.ndarray:
        n *= n
        return n

    return _norm_objective(
        M, squared, z,
        domain_radius=2.0 * nz,
        lower_bound=0.0,
        probe_points=(z, SparseSequence()),
        coercive=coercive,
    )


def shifted_ball_objective(M: OrliczFunction, radius: float = 1.0) -> Objective:
    """f = 1 + ||x||^2 inside the radius ball, +inf outside.

    The minimum over the ball is at 0, but subtracting a full multiple of
    the modular flips it onto the sphere, which is what makes this the
    standard stress case for the support construction.
    """

    def from_norm(n: np.ndarray) -> np.ndarray:
        outside = n > radius * (1.0 + 1e-12)
        n *= n
        n += 1.0
        n[outside] = math.inf
        return n

    return _norm_objective(M, from_norm, domain_radius=radius, lower_bound=1.0, coercive=False)


def inverse_bump_objective(M: OrliczFunction, radius: float = 1.0) -> Objective:
    """f = b^-2 for the standard smooth bump b supported on the radius ball.

    b(x) = exp(1 - 1/(1 - (||x||/radius)^2)) inside, 0 outside, so f is
    smooth inside, equals 1 at the center, and blows up at the boundary,
    saturating to +inf where the true value exceeds the float range.
    """

    def from_norm(n: np.ndarray) -> np.ndarray:
        # exp(2/(1 - r^2) - 2) step by step in place, so that a whole grid
        # holds one extra array of the inside points only.
        n /= radius
        inside = n < 1.0
        rr = n[inside]
        rr *= rr
        np.subtract(1.0, rr, out=rr)
        np.divide(2.0, rr, out=rr)
        rr -= 2.0
        n[inside] = np.exp(rr, out=rr)
        n[~inside] = math.inf
        return n

    return _norm_objective(M, from_norm, domain_radius=radius, lower_bound=1.0, coercive=False)


def parse_objective(M: OrliczFunction, text: str) -> Objective:
    """Objective literal -> objective.

    Forms: "modular", "modular:R", "sqdist:<sequence literal>",
    "ball-quad", "ball-quad:R", "bump-inv", "bump-inv:R".
    """
    text = text.strip()
    name, _, rest = text.partition(":")
    name = name.lower()
    if name == "modular":
        radius = float(rest) if rest else 1.0
        return modular_objective(M, radius)
    if name == "sqdist":
        z = parse_sequence(rest)
        return squared_distance_objective(M, z)
    if name == "ball-quad":
        radius = float(rest) if rest else 1.0
        return shifted_ball_objective(M, radius)
    if name == "bump-inv":
        radius = float(rest) if rest else 1.0
        return inverse_bump_objective(M, radius)
    raise DomainError(f"unknown objective {text!r}")
