"""Closed intervals over the extended reals.

These carry both interval estimates and interval null hypotheses.
Endpoints may be infinite (one-sided estimates such as ``[c, inf)``),
NaN is rejected outright, and length / intersection follow measure
conventions: a shared endpoint is a nonempty overlap of length zero.
``log10_interval`` maps a positive-axis interval onto the log10 scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import norm_quantile
from .errors import InvalidInterval, TruncationEmpty, check_probability, check_standard_error


@dataclass(frozen=True)
class ExtendedInterval:
    """A nonempty closed interval [lo, hi] with extended-real endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise InvalidInterval("interval endpoints must not be NaN")
        if lo > hi:
            raise InvalidInterval(f"lower endpoint {lo} exceeds upper endpoint {hi}")
        if lo == hi and math.isinf(lo):
            raise InvalidInterval("interval cannot be a single point at infinity")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_finite(self) -> bool:
        return not (math.isinf(self.lo) or math.isinf(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def invalid_intervals(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Where endpoints [lo, hi] fail ExtendedInterval's check, which supplies the message."""
    return np.isnan(lo) | np.isnan(hi) | (lo > hi) | ((lo == hi) & np.isinf(lo))


def length(interval: ExtendedInterval) -> float:
    """Length hi - lo; infinite when either endpoint is infinite or hi - lo
    exceeds the largest double."""
    return interval.hi - interval.lo


def intersect(i: ExtendedInterval, j: ExtendedInterval) -> ExtendedInterval | None:
    """Overlap of two intervals, or None when they are disjoint.

    Touching endpoints count as a zero-length (but nonempty) overlap.
    """
    lo = max(i.lo, j.lo)
    hi = min(i.hi, j.hi)
    if lo > hi:
        return None
    return ExtendedInterval(lo, hi)


def truncate(i: ExtendedInterval, bounds: ExtendedInterval) -> ExtendedInterval:
    """Clip an interval to the plausible effect range.

    Raises TruncationEmpty when the interval lies entirely outside the
    bounds. This is the recommended repair for one-sided or unbounded
    interval estimates before computing a second-generation p-value.
    """
    clipped = intersect(i, bounds)
    if clipped is None:
        raise TruncationEmpty(f"{i} does not meet truncation bounds {bounds}")
    return clipped


def z_interval(estimate: float, se: float, level: float = 0.95) -> ExtendedInterval:
    """Normal-theory interval estimate +/- z * se at the given confidence level."""
    check_standard_error(se)
    check_probability("confidence level", level)
    return ExtendedInterval(*z_endpoints(estimate, se, level))


def z_endpoints(estimate, se, level: float):
    """estimate -/+ z * se, as z_interval but unchecked; arrays overflow silently, as floats do."""
    with np.errstate(invalid="ignore", over="ignore"):
        half = norm_quantile(0.5 * (1.0 + level)) * se
        return estimate - half, estimate + half


def log10_array(values: np.ndarray) -> np.ndarray:
    """log10_interval's map, unchecked: math.log10 per element (np.log10 can miss an ulp)."""
    return np.fromiter(map(math.log10, values.tolist()), dtype=float, count=len(values))


def log10_interval(interval: ExtendedInterval) -> ExtendedInterval:
    """Map a positive-axis interval onto the log10 scale."""
    if interval.lo <= 0:
        raise InvalidInterval(
            f"log10 rescaling needs strictly positive endpoints, got {interval}"
        )
    return ExtendedInterval(math.log10(interval.lo), math.log10(interval.hi))
