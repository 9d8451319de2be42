"""Second-generation p-values over interval estimates and interval nulls.

The statistic is the fraction of data-supported hypotheses that are null
hypotheses: ``|I ∩ H0| / |I|`` for an interval estimate I and an interval
null H0, with a small-sample guard. When the estimate is wider than twice
the null interval *and* covers every null hypothesis, the bare fraction
would be small even though the data cannot adjudicate anything, so the
value is reset to 1/2. Definitive values are exact: 0 means the data
support only scientifically meaningful (alternative) hypotheses, 1 means
they support only null hypotheses; anything in between is inconclusive.

Estimates with an infinite endpoint are supported but discouraged; one that
covers the whole real line is rejected with an error pointing at
``intervals.truncate``. A one-sided estimate overlapping a finite null
yields ``0.5 * |I ∩ H0| / |H0|``, the wide-estimate limit.

The rule has one implementation, ``p_delta_array``, which returns
p_delta, the reset flag and the delta-gap for arrays of endpoints and
gives NaN for a whole-line estimate. ``second_gen_p`` and ``delta_gap``
are one-row views of it; batches, tracks, the CLI and the simulators
call it once per batch. Every term compares or divides differences of
endpoints, so it takes each at scale 1/2 on a row where a difference of
finite endpoints overflows, and p_delta is exact up to the largest double.
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
from .intervals import ExtendedInterval

_SQRT2 = math.sqrt(2.0)


class Classification(enum.Enum):
    """Tri-state verdict attached to a second-generation p-value."""

    ALTERNATIVE_COMPATIBLE = "alternative_compatible"
    NULL_COMPATIBLE = "null_compatible"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class NullSpec:
    """Interval null hypothesis with its half-width (delta).

    delta is the unit of the delta-gap; for asymmetric nulls it is half
    the interval length.
    """

    interval: ExtendedInterval
    delta: float

    def __post_init__(self) -> None:
        if not self.interval.is_finite:
            raise InvalidInterval("null interval must have finite endpoints")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise InvalidInterval(
                f"null half-width must be positive and finite, got {self.delta!r}"
            )

    @classmethod
    def symmetric(cls, point_null: float, delta: float) -> NullSpec:
        """Null interval [point_null - delta, point_null + delta]."""
        return cls(ExtendedInterval(point_null - delta, point_null + delta), float(delta))

    @classmethod
    def from_interval(cls, lo: float, hi: float) -> NullSpec:
        """Null interval [lo, hi]; delta is half the length."""
        ival = ExtendedInterval(lo, hi)
        return cls(ival, _half_length(ival))


def _half_length(null: ExtendedInterval) -> float:
    """Half the length of ``null``, finite exactly when the null is."""
    length = null.hi - null.lo
    return 0.5 * length if math.isfinite(length) else 0.5 * null.hi - 0.5 * null.lo


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


#: The verdict of each code ``classify_codes`` returns; code 3 (None) marks
#: an estimate covering the whole real line.
CLASSES = (*Classification, None)


def classify(p_delta: float) -> Classification:
    """Map a proportion to its tri-state verdict (0, 1, or in between)."""
    if math.isnan(p_delta) or not 0.0 <= p_delta <= 1.0:
        raise InvalidProportion(f"p_delta must lie in [0, 1], got {p_delta!r}")
    return CLASSES[classify_codes(p_delta)]


def classify_codes(p_delta: np.ndarray) -> np.ndarray:
    """``classify`` over an array of p_delta values, as indices into CLASSES.

    NaN, the value ``p_delta_array`` gives a whole-line estimate, is code 3.
    """
    code = np.full(np.shape(p_delta), 2, dtype=np.intp)
    code[p_delta == 0.0] = 0
    code[p_delta == 1.0] = 1
    code[np.isnan(p_delta)] = 3
    return code


def p_delta_array(
    lo: np.ndarray, hi: np.ndarray, h0: NullSpec | ExtendedInterval
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The p_delta rule, elementwise over estimates [lo, hi] against ``h0``.

    Returns (p_delta, correction_applied, delta_gap) arrays. Touching
    endpoints are a zero-length overlap; the 1/2 reset fires only for an
    estimate both wider than twice the null and covering it; a one-sided
    estimate against a finite null gives ``0.5 * |I ∩ H0| / |H0|``; two
    one-sided intervals give all or nothing; an estimate covering the
    whole real line gives NaN (uncorrected). Endpoints are taken to form
    valid intervals, as ExtendedInterval would require. Both lengths, the
    overlap and the gap are taken at scale 1/2 on a row where a difference
    of finite endpoints overflows, at scale 1 elsewhere; every comparison
    (one-sided means an infinite endpoint) takes the endpoints as given.

    The gap is NaN wherever p_delta != 0 or ``h0`` has no delta unit.
    The unit is ``NullSpec.delta``; a bare interval has one (half its
    length) only when that half-length is positive and finite.
    """
    null = h0.interval if isinstance(h0, NullSpec) else h0
    delta = h0.delta if isinstance(h0, NullSpec) else _half_length(null)
    null_lo, null_hi = null.lo, null.hi
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        top, bottom = np.minimum(hi, null_hi), np.maximum(lo, null_lo)  # the overlap's ends
        # comparisons take the endpoints as given, differences take them at scale s
        covers, settled = (lo <= null_lo) & (null_hi <= hi), (null_lo <= lo) & (hi <= null_hi)
        disjoint, above, below = top < bottom, lo >= null_hi, hi <= null_lo
        inf_lo, inf_hi = np.isinf(lo), np.isinf(hi)
        one_sided, whole_line = inf_lo | inf_hi, inf_lo & inf_hi
        ends, s = (lo, hi, top, bottom, null_lo, null_hi), None  # None: 1 on every row
        # s is 1/2 where a difference of finite endpoints overflows, which needs one >= 2**1023
        n_top = sum(np.count_nonzero(np.abs(x) >= 2.0**1023) for x in ends[:2] + ends[4:])
        if n_top > sum(map(np.count_nonzero, (inf_lo, inf_hi, np.isinf(ends[4:])))):
            over = [np.isinf(a - b) & np.isfinite(a) & np.isfinite(b)
                    for a, b in ((hi, lo), (top, bottom), (null_hi, null_lo))]
            s = np.where(over[0] | over[1] | over[2], 0.5, 1.0)
            lo, hi, top, bottom, null_lo, null_hi = (s * x for x in ends)
        len_i, len_h, overlap_len = hi - lo, null_hi - null_lo, top - bottom
        # later assignments win: wide-estimate reset, one-sided forms, then
        # nesting, disjointness and the whole line override everything
        p = overlap_len / len_i
        corrected = (len_i > 2.0 * len_h) & covers
        p[corrected] = 0.5
        if one_sided.any():
            part = overlap_len[one_sided]
            if not null.is_finite:
                # two one-sided intervals: all or nothing
                p[one_sided] = np.where(np.isinf(part), 1.0, 0.0)
                corrected[one_sided] = False
            else:
                len_h = len_h if s is None else len_h[one_sided]
                p[one_sided] = np.where(part == 0.0, 0.0, part / len_h * 0.5)
                corrected[one_sided] = part != 0.0
        p[settled] = 1.0
        p[disjoint] = 0.0
        p[whole_line] = np.nan
        corrected[settled | disjoint | whole_line] = False
        # signed distance to the null; 0 for touching endpoints and for an
        # overlap too small against the estimate for p_delta to resolve
        gap = np.where(above, lo - null_hi, np.where(below, hi - null_lo, 0.0))
        gap /= delta
        if s is not None:
            gap /= s  # after delta, which need not halve exactly
        has_unit = 0.0 < delta < math.inf
        gap[(p != 0.0) | (not has_unit)] = np.nan
    return p, corrected, gap


def _check_bounded(p_delta: np.ndarray) -> None:
    """Raise UnboundedEstimate if any estimate covered the whole real line."""
    if np.isnan(p_delta).any():
        raise UnboundedEstimate(
            "interval estimate covers the whole real line; truncate() it to "
            "the plausible effect range first"
        )


def _gap_or_none(gap: np.ndarray) -> float | None:
    value = gap.item()
    return None if math.isnan(value) else value


def second_gen_p(
    i: ExtendedInterval, h0: NullSpec | ExtendedInterval
) -> SgpvResult:
    """Second-generation p-value of interval estimate ``i`` against ``h0``.

    ``h0`` is normally a NullSpec; a bare ExtendedInterval is accepted for
    pathological one-sided nulls, in which case no delta-gap can be
    reported (there is no delta unit).
    """
    p, corrected, gap = p_delta_array([i.lo], [i.hi], h0)
    _check_bounded(p)
    return SgpvResult(p.item(), classify(p.item()), corrected.item(), _gap_or_none(gap))


def delta_gap(i: ExtendedInterval, h0: NullSpec) -> float | None:
    """Distance between the estimate and the null, in delta units.

    Present exactly when p_delta = 0: positive when the estimate lies
    above the null interval, negative when below, zero when they only
    touch or overlap by too little for p_delta to register. None
    otherwise, including for an estimate covering the whole real line.
    """
    return _gap_or_none(p_delta_array([i.lo], [i.hi], h0)[2])


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
    """Round half away from zero; the display convention for p_delta. Keeps a non-finite x."""
    if not math.isfinite(x):
        return x
    exponent = decimal.Decimal(1).scaleb(-digits)
    wide = decimal.Context(prec=310 + max(digits, 0))  # a double has at most 309 integer digits
    return float(decimal.Decimal(repr(x)).quantize(exponent, decimal.ROUND_HALF_UP, wide))
