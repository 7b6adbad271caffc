"""Second-difference probes that rule out smooth bump functions.

Each probe evaluates a divergence (or a uniform positive lower bound)
along a scale sequence; "obstruction-confirmed" means the sampled
quantities behaved as the obstruction predicts at every requested scale.
Thresholds and surrogates are reported so a reader can reject the verdict.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, OrliczError
from .functions import OrliczFunction, estimate_delta2_constant
from .sequences import SparseSequence, to_jsonable
from .space import _terms, luxemburg_norm, luxemburg_norm_dense
from .weights import PerturbationWeights

__all__ = [
    "ProbeReport",
    "SpaceClassification",
    "second_difference",
    "probe_l1",
    "probe_p_growth",
    "probe_second_derivative",
    "classify_space",
]

VERDICT_CONFIRMED = "obstruction-confirmed"
VERDICT_INCONCLUSIVE = "inconclusive"
# Largest (scales x coordinates) block probe_l1 evaluates, checked before allocating it.
_MAX_PROBE_CELLS = 1 << 22


@dataclass(frozen=True)
class ProbeReport:
    probe_name: str
    scales: tuple[float, ...]
    quotients: tuple[float, ...]
    threshold: float
    verdict: str
    notes: str = ""

    def __post_init__(self):
        if len(self.scales) != len(self.quotients):
            raise DomainError("scales and quotients must align")
        if any(b >= a for a, b in zip(self.scales, self.scales[1:])):
            raise DomainError("scales must be strictly decreasing")
        if any(not math.isfinite(q) for q in self.quotients):
            raise DomainError("quotients must be finite")

    def to_dict(self) -> dict:
        return to_jsonable(self)


@dataclass(frozen=True)
class SpaceClassification:
    family_tag: str
    delta2_ok: bool
    delta2_constant: Optional[float]
    excluded: tuple[str, ...]
    evidence: tuple[ProbeReport, ...]
    notes: str

    def to_dict(self) -> dict:
        return to_jsonable(self)


def second_difference(
    M: OrliczFunction,
    f: Callable[[SparseSequence], float],
    x: SparseSequence,
    h: SparseSequence,
    p: float,
    convex: bool = False,
) -> float:
    """(f(x+h) + f(x-h) - 2 f(x)) / ||h||^p, Luxemburg norm in the gauge."""
    if not h.entries:
        raise DomainError("probe direction h must be nonzero")
    if p <= 0.0:
        raise DomainError(f"exponent p must be > 0, got {p}")
    values = [float(f(x + h)), float(f(x - h)), float(f(x))]
    if any(not math.isfinite(v) for v in values):
        raise DomainError("probe left the effective domain of f")
    num = values[0] + values[1] - 2.0 * values[2]
    if convex and num < -1e-9:
        raise OrliczError(f"declared-convex f has negative second difference {num:.3e}")
    return num / luxemburg_norm(M, h) ** p


def probe_l1(
    M: OrliczFunction,
    a: PerturbationWeights,
    x_bar: SparseSequence,
    scales,
    n_probe: Optional[int] = None,
    slack: float = 0.1,
) -> ProbeReport:
    """First-order kink detector along coordinate spikes.

    For each scale t, takes the sup over coordinates n of the second
    difference of g_a at x_bar in direction t*e_n, normalized by ||t e_n||.
    On a gauge equivalent to the absolute value (weights >= 1, M ~ t near 0)
    any coordinate with |x_bar_n| < t contributes 2 a_n (t - |x_bar_n|)/t,
    and fresh coordinates past the support give the full 2 a_n >= 2: the sup
    staying >= 2 - slack at every scale kills Frechet differentiability of
    the supported envelope.
    """
    scales = tuple(float(t) for t in scales)
    if not scales or not all(0.0 < t < math.inf for t in scales):
        raise DomainError("scales must be positive and finite")
    if n_probe is None:
        n_probe = max(x_bar.max_index, len(a.head)) + 50
    limit = _MAX_PROBE_CELLS // len(scales)
    if not 1 <= n_probe <= limit:
        raise DomainError(f"n_probe must lie in 1..{limit:,} for {len(scales)} scales, got {n_probe:,}")
    # The second difference of g_a along t*e_n touches coordinate n only:
    # a_n (M(|x_n + t|) + M(|x_n - t|) - 2 M(|x_n|)), for every (t, n) at once.
    x = x_bar.to_dense(n_probe)
    t = np.array(scales)[:, None]
    m_plus, m_minus, m_bar = (_terms(M, y) for y in (x + t, x - t, x))
    with np.errstate(over="ignore", invalid="ignore"):  # inf, inf - inf: refused on the next line
        num = (m_plus + m_minus - 2.0 * m_bar) * a.weights_for(tuple(range(1, n_probe + 1)))
    if not np.isfinite(num).all():
        raise DomainError("probe left the effective domain of f")
    if (num < -1e-9).any():
        raise OrliczError(f"declared-convex f has negative second difference {num.min():.3e}")
    # ||t e_n|| does not depend on n: one norm per scale.
    quotients = (num.max(axis=1) / luxemburg_norm_dense(M, t)).tolist()
    threshold = 2.0 - slack
    confirmed = all(q >= threshold for q in quotients)
    return ProbeReport(
        probe_name="l1-kink",
        scales=scales,
        quotients=tuple(quotients),
        threshold=threshold,
        verdict=VERDICT_CONFIRMED if confirmed else VERDICT_INCONCLUSIVE,
        notes=f"sup over coordinates 1..{n_probe}",
    )


def probe_p_growth(
    M: OrliczFunction,
    p: float,
    k_max: int,
    refinement: int = 4,
    t_floor: float = 1e-12,
) -> ProbeReport:
    """Divergence of 2 M(t)/t^p along a scan sequence t_k.

    Walks t down the geometric grid 2^(-j/refinement) and, for each
    k = 1..k_max, takes the first unused grid point with M(t)/t^p > k.
    Each accepted point bounds a directional second-difference quotient of
    a weighted modular from below by 2 M(t_k)/t_k^p > 2k (probe a fresh
    coordinate: both shifts move by exactly t_k from 0), so completing the
    scan certifies quotients beyond every bound.  An exhausted scan leaves
    the probe inconclusive.
    """
    if not (1.0 < p <= 2.0):
        raise DomainError(f"growth probe needs p in (1, 2], got {p}")
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    scales = []
    quotients = []
    j = 1
    for k in range(1, k_max + 1):
        found = None
        while True:
            t = 2.0 ** (-j / refinement)
            if t < t_floor:
                break
            j += 1
            ratio = float(M.eval(t)) / t ** p
            if ratio > k:
                found = t
                break
        if found is None:
            break
        scales.append(found)
        quotients.append(2.0 * float(M.eval(found)) / found ** p)
    confirmed = len(scales) == k_max
    notes = "" if confirmed else f"scan exhausted at t_floor={t_floor:g} after {len(scales)} of {k_max} bounds"
    return ProbeReport(
        probe_name=f"growth-order-{p:g}",
        scales=tuple(scales),
        quotients=tuple(quotients),
        threshold=2.0 * k_max,
        verdict=VERDICT_CONFIRMED if confirmed else VERDICT_INCONCLUSIVE,
        notes=notes,
    )


def probe_second_derivative(
    M: OrliczFunction,
    scales,
    x_bar_mode: str = "nonzero",
) -> ProbeReport:
    """Curvature blowup of M near 0, two branches.

    mode "nonzero" samples M''(t) along the scales (the branch where the
    contact point has a small nonzero coordinate); mode "zero" samples the
    fresh-coordinate quotient 2 M(t)/t^2 (the branch where it vanishes).
    Divergence surrogate: growth by a factor >= 2 across each of the last
    three scale gaps.  Scales where a finite-difference fallback breaks
    down are dropped with a warning.
    """
    if x_bar_mode not in ("nonzero", "zero"):
        raise DomainError(f"unknown x_bar_mode {x_bar_mode!r}")
    scales_in = tuple(float(t) for t in scales)
    if not scales_in or not all(0.0 < t < math.inf for t in scales_in):
        raise DomainError("scales must be positive and finite")
    kept = []
    quotients = []
    for t in scales_in:
        try:
            if x_bar_mode == "nonzero":
                q = M.d2(t)
            else:
                q = 2.0 * float(M.eval(t)) / (t * t)
        except DomainError:
            warnings.warn(f"dropping scale {t:g}: finite differences unusable there")
            continue
        if not math.isfinite(q):
            warnings.warn(f"dropping scale {t:g}: curvature evaluation overflowed")
            continue
        kept.append(t)
        quotients.append(q)
    if len(kept) < 2:
        raise OrliczError("fewer than two usable scales; cannot assess growth")
    gaps = list(zip(quotients, quotients[1:]))[-3:]
    diverging = all(b >= 2.0 * a and a > 0.0 for a, b in gaps)
    return ProbeReport(
        probe_name=f"curvature-{x_bar_mode}",
        scales=tuple(kept),
        quotients=tuple(quotients),
        threshold=2.0 * quotients[-2],
        verdict=VERDICT_CONFIRMED if diverging else VERDICT_INCONCLUSIVE,
        notes="doubling across the last three scale gaps",
    )


_CLASSIFY_ORDERS = (1.25, 1.5, 1.75, 2.0)
_CLASSIFY_SCALES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def _l1_like(M: OrliczFunction) -> bool:
    # limsup M(t)/t > 0 surrogate: the slope ratio at the smallest scale
    # keeps at least a tenth of its large-scale value.
    ratios = [float(M.eval(t)) / t for t in _CLASSIFY_SCALES]
    return ratios[-1] >= 0.1 * ratios[0] > 0.0


def classify_space(
    M: OrliczFunction,
    k_max: int = 5,
    delta2_grid: int = 64,
) -> SpaceClassification:
    """Aggregate the probes into a list of excluded bump classes.

    Without a doubling constant (declared or estimated) the perturbation
    construction itself is unavailable and classification stops there.
    Otherwise each divergence probe that confirms adds its exclusion:
    order-p bump estimates for every confirmed growth order, kink evidence
    against Frechet bumps, curvature blowup against twice-Gateaux bumps.
    Deterministic: identical inputs produce identical reports.
    """
    constant = M.delta2_constant
    if constant is None:
        constant = estimate_delta2_constant(M, grid_size=delta2_grid)
    if constant is None:
        return SpaceClassification(
            family_tag=M.family_tag,
            delta2_ok=False,
            delta2_constant=None,
            excluded=(),
            evidence=(),
            notes=(
                "doubling condition fails near 0 at this resolution; "
                "perturbation method inapplicable"
            ),
        )

    excluded = []
    evidence = []
    if _l1_like(M):
        decaying = SparseSequence.from_pairs(
            (n, 2.0 ** (-n)) for n in range(1, 21)
        )
        report = probe_l1(
            M, PerturbationWeights(tail=1.0), decaying, _CLASSIFY_SCALES
        )
        evidence.append(report)
        if report.verdict == VERDICT_CONFIRMED:
            excluded.append("frechet-bump")
    for p in _CLASSIFY_ORDERS:
        report = probe_p_growth(M, p, k_max)
        evidence.append(report)
        if report.verdict == VERDICT_CONFIRMED:
            excluded.append(f"order-{p:g}-estimate-bump")
    curvature = probe_second_derivative(M, _CLASSIFY_SCALES, "nonzero")
    evidence.append(curvature)
    if curvature.verdict == VERDICT_CONFIRMED:
        excluded.append("twice-gateaux-bump")
    return SpaceClassification(
        family_tag=M.family_tag,
        delta2_ok=True,
        delta2_constant=constant,
        excluded=tuple(excluded),
        evidence=tuple(evidence),
        notes="",
    )
