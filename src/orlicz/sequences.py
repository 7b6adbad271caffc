"""Finitely supported sequences with 1-based indices."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError

__all__ = ["SparseSequence", "parse_sequence", "format_sequence", "to_jsonable"]


@dataclass(frozen=True)
class SparseSequence:
    """Entries (index, value) with strictly increasing indices >= 1, values != 0.

    Immutable.  Every result that may hold a zero, from arithmetic, scaling
    or a dense prefix, is built by from_pairs, which drops it, so the
    representation is always canonical and equality is structural.
    """

    entries: tuple[tuple[int, float], ...] = field(default=())

    def __post_init__(self):
        prev = 0
        for idx, val in self.entries:
            if not isinstance(idx, int) or idx < 1:
                raise DomainError(f"indices must be integers >= 1, got {idx!r}")
            if idx <= prev:
                raise DomainError(f"indices must be strictly increasing, got {idx} after {prev}")
            if val == 0.0 or not math.isfinite(val):
                raise DomainError(f"values must be nonzero and finite, got {val!r} at index {idx}")
            prev = idx

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "SparseSequence":
        """Build from (index, value) pairs in any order; zeros are dropped."""
        cleaned = sorted((int(i), float(v)) for i, v in pairs if float(v) != 0.0)
        for (a, _), (b, _) in zip(cleaned, cleaned[1:]):
            if a == b:
                raise DomainError(f"duplicate index {a}")
        return cls(tuple(cleaned))

    @classmethod
    def from_values(cls, values: Sequence[float], start: int = 1) -> "SparseSequence":
        """Dense prefix -> sparse form, indices start..start+len-1, zeros dropped."""
        return cls.from_pairs(enumerate(values, start))

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    @property
    def support_size(self) -> int:
        return len(self.entries)

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def value_at(self, index: int) -> float:
        for idx, val in self.entries:  # indices increase: stop at the first one >= index
            if idx >= index:
                return val if idx == index else 0.0
        return 0.0

    def indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.entries)

    def values(self) -> tuple[float, ...]:
        return tuple(val for _, val in self.entries)

    def scale(self, factor: float) -> "SparseSequence":
        """Entries times factor; a product that is 0, by factor 0 or by underflow, is dropped."""
        return SparseSequence.from_pairs((i, v * factor) for i, v in self.entries)

    def __mul__(self, factor: float) -> "SparseSequence":
        return self.scale(float(factor))

    __rmul__ = __mul__

    def __neg__(self) -> "SparseSequence":
        return self.scale(-1.0)

    def _merge(self, other: "SparseSequence", sign: float) -> "SparseSequence":
        # 0.0 + x is x for nonzero x, so an index of other alone gets sign * v.
        out = dict(self.entries)
        for i, v in other.entries:
            out[i] = out.get(i, 0.0) + sign * v
        return SparseSequence.from_pairs(out.items())

    def __add__(self, other: "SparseSequence") -> "SparseSequence":
        return self._merge(other, 1.0)

    def __sub__(self, other: "SparseSequence") -> "SparseSequence":
        return self._merge(other, -1.0)

    def to_dense(self, length: int | None = None) -> np.ndarray:
        n = self.max_index if length is None else length
        out = np.zeros(n, dtype=float)
        for idx, val in self.entries:
            if idx <= n:
                out[idx - 1] = val
        return out


def parse_sequence(text: str) -> SparseSequence:
    """Parse the literal "i1:v1,i2:v2,..."; empty or blank text is the zero sequence."""
    text = text.strip()
    if not text:
        return SparseSequence()
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            idx_text, val_text = chunk.split(":")
            pairs.append((int(idx_text), float(val_text)))
        except ValueError as exc:
            raise DomainError(f"bad sequence entry {chunk!r}; expected index:value") from exc
    return SparseSequence.from_pairs(pairs)


def format_sequence(x: SparseSequence) -> str:
    """Inverse of parse_sequence (canonical order, repr-exact floats)."""
    return ",".join(f"{i}:{v!r}" for i, v in x.entries)


def to_jsonable(obj: Any) -> Any:
    """JSON-ready tree of a report: every dataclass becomes a dict of its
    fields, SparseSequence its format_sequence text, tuples and lists lists."""
    if isinstance(obj, SparseSequence):
        return format_sequence(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [to_jsonable(v) for v in obj]
    return obj
