"""Second-generation p-values over interval estimates and interval nulls.

The statistic is the fraction of data-supported hypotheses that are null
hypotheses: ``|I ∩ H0| / |I|`` for an interval estimate I and an interval
null H0, with a small-sample guard. When the estimate is wider than twice
the null interval *and* covers every null hypothesis, the bare fraction
would be small even though the data cannot adjudicate anything, so the
value is reset to 1/2. Definitive values are exact: 0 means the data
support only scientifically meaningful (alternative) hypotheses, 1 means
they support only null hypotheses; anything in between is inconclusive.

Infinite-length estimates are supported but discouraged; an estimate that
covers the whole real line is rejected with an error pointing at
``intervals.truncate``. A one-sided estimate overlapping a finite null
yields ``0.5 * |I ∩ H0| / |H0|``, the wide-estimate limit.

``p_delta_array`` applies the same rule to arrays of endpoints with the
same float operations, so it agrees with the scalar rule elementwise; a
whole-line estimate there gives NaN instead of an error.
"""

from __future__ import annotations

import decimal
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInterval,
    InvalidProportion,
    InvalidScale,
    UnboundedEstimate,
)
from .intervals import ExtendedInterval, intersect, length

_SQRT2 = math.sqrt(2.0)


class Classification(enum.Enum):
    """Tri-state verdict attached to a second-generation p-value."""

    ALTERNATIVE_COMPATIBLE = "alternative_compatible"
    NULL_COMPATIBLE = "null_compatible"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class NullSpec:
    """Interval null hypothesis with its half-width (delta) and center.

    delta is the unit of the delta-gap; for asymmetric nulls it is half
    the interval length and point_null the midpoint.
    """

    interval: ExtendedInterval
    delta: float
    point_null: float

    def __post_init__(self) -> None:
        if not self.interval.is_finite:
            raise InvalidInterval("null interval must have finite endpoints")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise InvalidInterval(
                f"null half-width must be positive and finite, got {self.delta!r}"
            )
        if not math.isfinite(self.point_null):
            raise InvalidInterval("point null must be finite")

    @classmethod
    def symmetric(cls, point_null: float, delta: float) -> NullSpec:
        """Null interval [point_null - delta, point_null + delta]."""
        return cls(
            ExtendedInterval(point_null - delta, point_null + delta),
            float(delta),
            float(point_null),
        )

    @classmethod
    def from_interval(cls, lo: float, hi: float) -> NullSpec:
        """Null interval [lo, hi]; delta is half the length, center the midpoint."""
        ival = ExtendedInterval(lo, hi)
        return cls(ival, 0.5 * (ival.hi - ival.lo), 0.5 * (ival.hi + ival.lo))


@dataclass(frozen=True)
class SgpvResult:
    """A second-generation p-value with its verdict and ranking metadata.

    delta_gap is present exactly when p_delta = 0; correction_applied
    marks the wide-estimate guard (which implies p_delta <= 1/2).
    """

    p_delta: float
    classification: Classification
    correction_applied: bool
    delta_gap: float | None


def classify(p_delta: float) -> Classification:
    """Map a proportion to its tri-state verdict (0, 1, or in between)."""
    if math.isnan(p_delta) or not 0.0 <= p_delta <= 1.0:
        raise InvalidProportion(f"p_delta must lie in [0, 1], got {p_delta!r}")
    if p_delta == 0.0:
        return Classification.ALTERNATIVE_COMPATIBLE
    if p_delta == 1.0:
        return Classification.NULL_COMPATIBLE
    return Classification.INCONCLUSIVE


def _p_delta(i: ExtendedInterval, h: ExtendedInterval) -> tuple[float, bool]:
    """Core computation on bare intervals: (p_delta, correction_applied)."""
    if math.isinf(i.lo) and math.isinf(i.hi):
        raise UnboundedEstimate(
            "interval estimate covers the whole real line; truncate() it to "
            "the plausible effect range first"
        )
    overlap = intersect(i, h)
    if overlap is None:
        return 0.0, False
    if h.lo <= i.lo and i.hi <= h.hi:
        # every data-supported hypothesis is a null hypothesis
        return 1.0, False
    overlap_len = length(overlap)
    len_i = length(i)
    len_h = length(h)
    if math.isinf(len_i):
        if overlap_len == 0.0:
            return 0.0, False
        if math.isinf(len_h):
            # two one-sided intervals: all or nothing
            return (1.0, False) if math.isinf(overlap_len) else (0.0, False)
        return 0.5 * overlap_len / len_h, True
    if len_i > 2.0 * len_h and i.lo <= h.lo and h.hi <= i.hi:
        # estimate too imprecise to adjudicate, yet every null hypothesis
        # is supported: strictly inconclusive
        return 0.5, True
    return overlap_len / len_i, False


def p_delta_array(
    lo: np.ndarray, hi: np.ndarray, null_lo: float, null_hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ``_p_delta`` of estimates [lo, hi] against [null_lo, null_hi].

    Returns (p_delta, correction_applied) arrays. Every convention
    of the scalar rule holds, with the same float operations; the only
    difference is that an estimate covering the whole real line gives NaN
    (uncorrected) where ``_p_delta`` raises. Endpoints are taken to form
    valid intervals, as ExtendedInterval would require.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    len_h = null_hi - null_lo
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        len_i = hi - lo
        overlap_len = np.minimum(hi, null_hi)
        overlap_len -= np.maximum(lo, null_lo)  # negative exactly when disjoint
        # later assignments win, mirroring the order of the scalar early returns
        p = overlap_len / len_i
        corrected = (len_i > 2.0 * len_h) & (lo <= null_lo) & (null_hi <= hi)
        p[corrected] = 0.5
        one_sided = np.isinf(len_i)
        if one_sided.any():
            part = overlap_len[one_sided]
            if math.isinf(len_h):
                # two one-sided intervals: all or nothing
                p[one_sided] = np.where(np.isinf(part), 1.0, 0.0)
                corrected[one_sided] = False
            else:
                p[one_sided] = np.where(part == 0.0, 0.0, 0.5 * part / len_h)
                corrected[one_sided] = part != 0.0
        settled = (null_lo <= lo) & (hi <= null_hi)
        p[settled] = 1.0
        disjoint = overlap_len < 0.0
        p[disjoint] = 0.0
        settled |= disjoint
        whole_line = np.isinf(lo) & np.isinf(hi)
        p[whole_line] = np.nan
        settled |= whole_line
        corrected[settled] = False
    return p, corrected


def second_gen_p(
    i: ExtendedInterval, h0: NullSpec | ExtendedInterval
) -> SgpvResult:
    """Second-generation p-value of interval estimate ``i`` against ``h0``.

    ``h0`` is normally a NullSpec; a bare ExtendedInterval is accepted for
    pathological one-sided nulls, in which case no delta-gap can be
    reported (there is no delta unit).
    """
    if isinstance(h0, NullSpec):
        spec: NullSpec | None = h0
    elif h0.is_finite and h0.hi > h0.lo:
        spec = NullSpec.from_interval(h0.lo, h0.hi)
    else:
        spec = None
    null_interval = h0.interval if isinstance(h0, NullSpec) else h0
    p, corrected = _p_delta(i, null_interval)
    gap = delta_gap(i, spec) if (p == 0.0 and spec is not None) else None
    return SgpvResult(p, classify(p), corrected, gap)


def delta_gap(i: ExtendedInterval, h0: NullSpec) -> float | None:
    """Distance between a non-overlapping estimate and the null, in delta units.

    Positive when the estimate lies above the null interval, negative when
    below, and None when the intervals properly overlap. A shared endpoint
    yields a gap of zero.
    """
    null = h0.interval
    overlap = intersect(i, null)
    if overlap is not None and length(overlap) > 0.0:
        return None
    if i.lo >= null.hi:
        return (i.lo - null.hi) / h0.delta
    return (i.hi - null.lo) / h0.delta


def traditional_p(estimate: float, se: float, theta0: float) -> float:
    """Two-sided z-test p-value against the point null theta0."""
    if not se > 0:
        raise InvalidScale(f"standard error must be positive, got {se!r}")
    z = abs(estimate - theta0) / se
    return math.erfc(z / _SQRT2)  # == 2 * Phi(-z)


def max_p_over_null(estimate: float, se: float, h0: NullSpec) -> float:
    """Largest two-sided p-value over all point nulls inside the null interval.

    Equals 1 when the estimate falls inside the interval; otherwise the
    z-test p-value against the nearest edge.
    """
    if not se > 0:
        raise InvalidScale(f"standard error must be positive, got {se!r}")
    if h0.interval.contains(estimate):
        return 1.0
    d = max(h0.interval.lo - estimate, estimate - h0.interval.hi)
    return math.erfc(d / (se * _SQRT2))


def round_half_away(x: float, digits: int = 4) -> float:
    """Round half away from zero; the display convention for p_delta."""
    exponent = decimal.Decimal(1).scaleb(-digits)
    return float(decimal.Decimal(repr(x)).quantize(exponent, decimal.ROUND_HALF_UP))
