"""Bounded weight families and the weighted modulars they induce.

A weight family a = (a_n) is stored as an explicit head plus a constant
tail, which keeps g_a(x) = sum a_n M(|x_n|) an exact finite sum on
finitely supported x while still modelling an infinite family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .functions import OrliczFunction
from .sequences import SparseSequence, to_jsonable
from .space import _terms, nu_bound

__all__ = ["PerturbationWeights", "g_eval", "g_eval_dense", "g_bounds"]


@dataclass(frozen=True)
class PerturbationWeights:
    """Weights a_n = head[n-1] for n <= len(head), a_n = tail beyond.

    Unsigned families (the default) must be componentwise >= 0; signed
    families may mix signs and split into positive and negative parts.
    """

    head: tuple[float, ...] = field(default=())
    tail: float = 0.0
    signed: bool = False

    def __post_init__(self):
        for v in (*self.head, self.tail):
            if not math.isfinite(v):
                raise DomainError(f"weights must be finite, got {v!r}")
            if not self.signed and v < 0.0:
                raise DomainError(
                    f"unsigned weight family has a negative entry {v!r}"
                )

    def weight_at(self, index: int) -> float:
        if index < 1:
            raise DomainError(f"weight index must be >= 1, got {index}")
        if index <= len(self.head):
            return self.head[index - 1]
        return self.tail

    def weights_for(self, indices: tuple[int, ...]) -> np.ndarray:
        return np.array([self.weight_at(i) for i in indices], dtype=float)

    @property
    def sup_norm(self) -> float:
        return max((abs(v) for v in (*self.head, self.tail)), default=0.0)

    def __add__(self, other: "PerturbationWeights") -> "PerturbationWeights":
        n = max(len(self.head), len(other.head))
        head = tuple(
            self.weight_at(i) + other.weight_at(i) for i in range(1, n + 1)
        )
        return PerturbationWeights(
            head=head,
            tail=self.tail + other.tail,
            signed=self.signed or other.signed,
        )

    def scale(self, factor: float) -> "PerturbationWeights":
        return PerturbationWeights(
            head=tuple(v * factor for v in self.head),
            tail=self.tail * factor,
            signed=self.signed or factor < 0.0,
        )

    def positive_part(self) -> "PerturbationWeights":
        return PerturbationWeights(
            head=tuple(max(v, 0.0) for v in self.head),
            tail=max(self.tail, 0.0),
        )

    def negative_part(self) -> "PerturbationWeights":
        return PerturbationWeights(
            head=tuple(max(-v, 0.0) for v in self.head),
            tail=max(-self.tail, 0.0),
        )

    def to_dict(self) -> dict:
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PerturbationWeights":
        return cls(
            head=tuple(float(v) for v in data.get("head", ())),
            tail=float(data.get("tail", 0.0)),
            signed=bool(data.get("signed", False)),
        )


def g_eval(M: OrliczFunction, a: PerturbationWeights, x: SparseSequence) -> float:
    """g_a(x) = sum over the support of a_n M(|x_n|): a one-row call of g_eval_dense."""
    return float(g_eval_dense(M, a, np.array(x.values(), dtype=float), x.indices())[0])


def g_eval_dense(
    M: OrliczFunction,
    a: PerturbationWeights,
    rows: np.ndarray,
    indices: tuple[int, ...],
) -> np.ndarray:
    """Row-wise g_a over dense rows living on the given coordinate indices."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    w = a.weights_for(indices)
    return _terms(M, rows) @ w


def g_bounds(M: OrliczFunction, a: PerturbationWeights, K: float) -> tuple[float, float]:
    """(sup bound, Lipschitz bound) for g_a on the norm ball of radius K.

    |g_a| <= sup|a_n| * sigma on the ball, and differences telescope through
    the positive and negative parts, each Lipschitz with the ball enlarged
    by one unit of radius; hence the factor 2 on the Lipschitz side.
    """
    s = a.sup_norm
    return s * nu_bound(M, K), 2.0 * s * nu_bound(M, K + 1.0)
