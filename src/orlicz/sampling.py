"""Seeded samplers for balls and sublevel sets.

Each draw recreates its generator from the stored seed, so repeated calls
return identical points and the sampler can be shared between diagnostics
without order effects.  dense_points yields the dense block the diagnostics
work on; points() is the same draw as sparse sequences.  The grid sampler
is engine.GridOracle, whose dense_points is its whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .functions import OrliczFunction
from .sequences import SparseSequence
from .space import luxemburg_norm_dense

__all__ = ["BallSampler", "dense_to_sequences"]

# Largest dense block a ball sampler builds, checked before anything is
# allocated: 2^22 cells of 8 bytes are 32 MiB.
_MAX_CELLS = 1 << 22


def dense_to_sequences(rows: np.ndarray, indices: tuple[int, ...]) -> list[SparseSequence]:
    """Map dense rows over the given coordinate indices to sparse form."""
    order = sorted(range(len(indices)), key=lambda j: indices[j])
    keys = [int(indices[j]) for j in order]
    return [
        SparseSequence(tuple((i, v) for i, v in zip(keys, row) if v != 0.0))
        for row in np.asarray(rows, dtype=float)[:, order].tolist()
    ]


@dataclass(frozen=True)
class BallSampler:
    """Random points of radius*B with log-uniform radii.

    Directions: `support_size` coordinates drawn without replacement from
    1..index_range, standard normal values, row normalized to Luxemburg
    norm 1.  Radii: radius * 10**(-decades * u), u uniform, so every scale
    down to radius/10^decades is populated.  The zero sequence and any
    `extra` points are appended to every draw.  A draw of more than 2^22
    cells, rows times the largest index, is refused before allocation.
    """

    seed: int
    count: int = 400
    support_size: int = 6
    index_range: int = 40
    decades: float = 3.0
    include_zero: bool = True
    extra: tuple[SparseSequence, ...] = field(default=())

    def __post_init__(self):
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count}")
        if not (1 <= self.support_size <= self.index_range):
            raise DomainError(
                f"need 1 <= support_size <= index_range, got "
                f"{self.support_size}, {self.index_range}"
            )

    def dense_points(self, M: OrliczFunction, radius: float) -> tuple[np.ndarray, tuple[int, ...]]:
        """(rows, indices): the random rows, then the zero row, then the extra
        points, as dense coordinates over 1..width, width the largest index."""
        if radius <= 0.0:
            raise DomainError(f"radius must be > 0, got {radius}")
        width = max([self.index_range] + [x.max_index for x in self.extra])
        n_rows = self.count + self.include_zero + len(self.extra)
        if n_rows * width > _MAX_CELLS:
            raise DomainError(
                f"sample block of {n_rows:,} rows x {width:,} columns exceeds the cap of "
                f"{_MAX_CELLS:,} cells; lower count (samples) or index_range"
            )
        rng = np.random.default_rng(self.seed)
        rows = np.zeros((self.count, self.index_range), dtype=float)
        for i in range(self.count):
            support = rng.choice(self.index_range, size=self.support_size, replace=False)
            rows[i, support] = rng.standard_normal(self.support_size)
        norms = luxemburg_norm_dense(M, rows)
        norms[norms == 0.0] = 1.0
        radii = radius * 10.0 ** (-self.decades * rng.uniform(size=self.count))
        rows *= (radii / norms)[:, None]
        block = np.zeros((n_rows, width), dtype=float)
        block[: self.count, : self.index_range] = rows
        for i, x in enumerate(self.extra, start=len(block) - len(self.extra)):
            block[i] = x.to_dense(width)
        return block, tuple(range(1, width + 1))

    def points(self, M: OrliczFunction, radius: float) -> list[SparseSequence]:
        return dense_to_sequences(*self.dense_points(M, radius))

    def describe(self) -> str:
        return (
            f"random-ball(seed={self.seed}, count={self.count}, "
            f"support={self.support_size}, indices<={self.index_range}, "
            f"decades={self.decades:g}, zero={self.include_zero}, "
            f"extra={len(self.extra)})"
        )
