"""Batch multiple-comparison screening and pointwise classification tracks.

Workflow: turn each study row (a confidence interval, optionally with its
classical p-value) into a second-generation p-value against a shared
interval null, rank the definitive findings by delta-gap, and tabulate the
verdicts against classical multiplicity adjustments (Bonferroni and
Benjamini-Hochberg). Fold-change screens are handled on the log10 scale;
the conventional "fold change beyond 2" null is [-log10(2), +log10(2)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import Classification, NullSpec, _bounded, _verdicts
from .errors import (
    InvalidInterval,
    InvalidProbability,
    InvalidSeries,
    InvalidSummary,
    MissingComparator,
)
from .intervals import ExtendedInterval

#: Default fold-change null on the log10 scale: fold changes inside (1/2, 2).
FOLD_CHANGE_NULL = NullSpec.symmetric(0.0, math.log10(2.0))


@dataclass(frozen=True)
class GroupSummary:
    """Summary statistics of one arm of a two-group comparison."""

    n: int
    mean: float
    sd: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidSummary(f"group size must be >= 2, got {self.n!r}")
        if not (self.sd > 0 and math.isfinite(self.sd)):
            raise InvalidSummary(f"sd must be positive, got {self.sd!r}")


@dataclass(frozen=True)
class StudyRow:
    """One comparison entering a screen: an id, an estimate, its interval."""

    id: str
    estimate: float
    interval: ExtendedInterval
    p_value: float | None = None


@dataclass(frozen=True)
class ScreenRow:
    """Per-row screen output; p_delta is None when the row was flagged."""

    id: str
    p_delta: float | None
    classification: Classification | None
    delta_gap: float | None
    p_raw: float | None
    p_bonferroni: float | None = None
    q_bh: float | None = None
    flags: str = ""


@dataclass(frozen=True)
class ScreenSummary:
    """Counts per classification and, once adjustments run, per decision rule."""

    n_rows: int
    n_alternative: int
    n_null: int
    n_inconclusive: int
    n_flagged: int
    n_bonferroni_significant: int | None = None
    n_bh_significant: int | None = None
    n_raw_significant: int | None = None


@dataclass(frozen=True)
class ScreenReport:
    rows: tuple[ScreenRow, ...]
    summary: ScreenSummary


@dataclass(frozen=True)
class CrossTab:
    """2x2 counts of {p_delta = 0, p_delta > 0} x Bonferroni significance."""

    sgpv_zero_significant: int
    sgpv_positive_significant: int
    sgpv_zero_not_significant: int
    sgpv_positive_not_significant: int

    @property
    def total(self) -> int:
        return (
            self.sgpv_zero_significant
            + self.sgpv_positive_significant
            + self.sgpv_zero_not_significant
            + self.sgpv_positive_not_significant
        )

    @property
    def sgpv_zero_total(self) -> int:
        return self.sgpv_zero_significant + self.sgpv_zero_not_significant

    @property
    def significant_total(self) -> int:
        return self.sgpv_zero_significant + self.sgpv_positive_significant


@dataclass(frozen=True)
class TrackPoint:
    """One rug-plot tick: green at 0, red at 1, grey in between."""

    t: float
    p_delta: float
    classification: Classification

    @property
    def grey_level(self) -> float | None:
        """Linear grey shade for inconclusive points; None for definitive ones."""
        if self.classification is Classification.INCONCLUSIVE:
            return self.p_delta
        return None


_SE_OVERFLOW = "the standard error of the difference under- or overflows"


def two_sample_ci_array(
    n1, mean1, sd1, n2, mean2, sd2, level: float = 0.95, welch: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-group t intervals and tests, one row per comparison (group 1 - group 2).

    Returns (estimate, lo, hi, p_value, invalid) arrays: the difference in
    means, the ``level`` t interval around it and the two-sided t-test
    p-value, pooled-variance by default or Welch-Satterthwaite with
    ``welch=True``. ``invalid`` marks the rows ``two_sample_ci`` rejects
    with InvalidSummary: a group size below 2, an sd that is not positive
    and finite, or a standard error or df whose arithmetic under- or
    overflows (where Python floats raise, numpy would return inf or NaN);
    lo, hi and p_value are NaN there.

    Every value is bitwise what the Python float arithmetic of the scalar
    formulas gives: squares through ``np.float_power``, which is libm
    ``pow`` like Python's ``x**2`` (``x*x`` differs in the last bit), and
    the group sizes, the sizes less one and the pooled df ``n1 + n2 - 2``
    each rounded once from the exact whole numbers. The t quantile and
    tail come from ``scipy.special``, imported here and nowhere else, so
    that no other command pays for loading scipy.
    """
    if not 0.0 < level < 1.0:
        raise InvalidProbability(f"confidence level must be in (0, 1), got {level!r}")
    from scipy.special import stdtr, stdtrit

    f1, f1m, f2, f2m, pooled_df = _group_counts(n1, n2)
    sd1 = np.asarray(sd1, dtype=float)
    sd2 = np.asarray(sd2, dtype=float)
    invalid = (f1 < 2) | (f2 < 2) | ~((sd1 > 0) & np.isfinite(sd1) & (sd2 > 0) & np.isfinite(sd2))
    with np.errstate(all="ignore"):
        estimate = np.asarray(mean1, dtype=float) - np.asarray(mean2, dtype=float)
        # flag where Python floats raise: ** overflowing from a finite base, / by 0
        sq1, sq2 = np.float_power(sd1, 2.0), np.float_power(sd2, 2.0)
        invalid |= np.isinf(sq1) | np.isinf(sq2)
        if welch:
            va, vb = sq1 / f1, sq2 / f2
            total = va + vb
            se = np.sqrt(total)
            num = np.float_power(total, 2.0)
            va2, vb2 = np.float_power(va, 2.0), np.float_power(vb, 2.0)
            den = va2 / f1m + vb2 / f2m
            df = num / den
            invalid |= (np.isinf(num) & np.isfinite(total)) | np.isinf(va2) | np.isinf(vb2)
            invalid |= den == 0.0
        else:
            pooled = (f1m * sq1 + f2m * sq2) / pooled_df
            se = np.sqrt(pooled * (1.0 / f1 + 1.0 / f2))
            df = pooled_df
        invalid |= se == 0.0
        t_stat = np.abs(estimate) / se
        t_crit = stdtrit(df, 0.5 * (1.0 + level))
        p_value = 2.0 * stdtr(df, -t_stat)
        lo = estimate - t_crit * se
        hi = estimate + t_crit * se
    for column in (lo, hi, p_value):
        column[invalid] = np.nan
    return estimate, lo, hi, p_value, invalid


def _group_counts(n1, n2) -> tuple[np.ndarray, ...]:
    """float(n1), float(n1 - 1), float(n2), float(n2 - 1), float(n1 + n2 - 2).

    Each is the exact whole-number value rounded once. Float arithmetic is
    exact while n1 + n2 stays below 2**53; rows that reach it are redone
    in Python ints from the caller's own entries.
    """
    f1 = np.atleast_1d(np.asarray(n1, dtype=float))
    f2 = np.atleast_1d(np.asarray(n2, dtype=float))
    f1m, f2m, pooled_df = f1 - 1.0, f2 - 1.0, f1 + f2 - 2.0
    big = np.isfinite(f1) & np.isfinite(f2) & (np.abs(f1) + np.abs(f2) >= 2.0**53)
    for k in np.flatnonzero(big).tolist():
        a, b = int(n1[k]), int(n2[k])
        f1m[k], f2m[k], pooled_df[k] = float(a - 1), float(b - 1), float(a + b - 2)
    return f1, f1m, f2, f2m, pooled_df


def two_sample_ci(
    a: GroupSummary, b: GroupSummary, level: float = 0.95, welch: bool = False
) -> tuple[float, ExtendedInterval, float]:
    """Difference in means (a - b): t interval and two-sided t-test p-value.

    Pooled-variance t by default; set ``welch=True`` for the
    Welch-Satterthwaite variant. A one-row view of ``two_sample_ci_array``.
    """
    try:
        estimate, lo, hi, p_value, invalid = two_sample_ci_array(
            [a.n], [a.mean], [a.sd], [b.n], [b.mean], [b.sd], level, welch
        )
    except OverflowError as exc:  # a group size beyond the float range
        raise InvalidSummary(_SE_OVERFLOW) from exc
    if invalid[0]:
        raise InvalidSummary(_SE_OVERFLOW)
    interval = ExtendedInterval(lo[0], hi[0])
    return float(estimate[0]), interval, float(p_value[0])


def batch_sgpv(rows: Sequence[StudyRow], h0: NullSpec) -> ScreenReport:
    """Second-generation p-values for every row, preserving input order.

    A row whose estimate interval covers the whole real line is flagged
    ("unbounded_estimate") instead of failing the batch.
    """
    verdicts = _verdicts([r.interval.lo for r in rows], [r.interval.hi for r in rows], h0)
    out = [
        ScreenRow(row.id, p, cls, gap, row.p_value,
                  flags="" if p is not None else "unbounded_estimate")
        for row, (p, cls, _, gap) in zip(rows, verdicts)
    ]
    return ScreenReport(tuple(out), _summarize(out))


def _summarize(
    rows: Sequence[ScreenRow], alpha: float | None = None
) -> ScreenSummary:
    n_alt = sum(1 for r in rows if r.classification is Classification.ALTERNATIVE_COMPATIBLE)
    n_null = sum(1 for r in rows if r.classification is Classification.NULL_COMPATIBLE)
    n_inc = sum(1 for r in rows if r.classification is Classification.INCONCLUSIVE)
    n_flagged = sum(1 for r in rows if r.flags)
    summary = ScreenSummary(len(rows), n_alt, n_null, n_inc, n_flagged)
    if alpha is None:
        return summary
    m = len(rows)
    return replace(
        summary,
        n_bonferroni_significant=sum(
            1 for r in rows if r.p_raw is not None and r.p_raw < alpha / m
        ),
        n_bh_significant=sum(1 for r in rows if r.q_bh is not None and r.q_bh < alpha),
        n_raw_significant=sum(
            1 for r in rows if r.p_raw is not None and r.p_raw < alpha
        ),
    )


def attach_adjustments(report: ScreenReport, alpha: float) -> ScreenReport:
    """Add Bonferroni-adjusted p-values and BH q-values to a report.

    Every row must carry a raw p-value; decision counts (strict ``<``
    thresholds) are added to the summary.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidProbability(f"alpha must be in (0, 1), got {alpha!r}")
    p_raw = [row.p_raw for row in report.rows]
    if any(p is None for p in p_raw):
        raise MissingComparator("every row needs a raw p-value to adjust")
    qs = bh_qvalues(p_raw)
    m = len(p_raw)
    rows = tuple(
        replace(row, p_bonferroni=min(1.0, m * row.p_raw), q_bh=q)
        for row, q in zip(report.rows, qs)
    )
    return ScreenReport(rows, _summarize(rows, alpha))


def _validate_pvalues(p_values: Sequence[float]) -> None:
    for p in p_values:
        if p is None or math.isnan(p) or not 0.0 < p <= 1.0:
            raise InvalidProbability(f"p-values must lie in (0, 1], got {p!r}")


def bonferroni_flags(p_values: Sequence[float], alpha: float) -> list[bool]:
    """Family-wise significance flags: p < alpha / m."""
    if not 0.0 < alpha < 1.0:
        raise InvalidProbability(f"alpha must be in (0, 1), got {alpha!r}")
    _validate_pvalues(p_values)
    m = len(p_values)
    return [p < alpha / m for p in p_values]


def bh_qvalues(p_values: Sequence[float]) -> list[float]:
    """Benjamini-Hochberg step-up q-values, returned in input order.

    q at ascending rank i is min over j >= i of m * p_(j) / j, capped at 1.
    """
    _validate_pvalues(p_values)
    m = len(p_values)
    if m == 0:
        return []
    order = sorted(range(m), key=p_values.__getitem__)
    qs = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, m * p_values[idx] / rank)
        qs[idx] = running
    return qs


def cross_tab(report: ScreenReport, alpha: float) -> CrossTab:
    """Cross-tabulate definitive sgpv findings against Bonferroni decisions.

    The Bonferroni family is every row of the report: a row is significant
    when p_raw < alpha / m with m = len(report.rows), the same m as in
    ``p_bonferroni`` and the summary counts. Flagged rows count toward m
    but have no verdict, so they fall in no cell; every other row must
    carry a raw p-value.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidProbability(f"alpha must be in (0, 1), got {alpha!r}")
    rows = [r for r in report.rows if not r.flags]
    if any(r.p_raw is None for r in rows):
        raise MissingComparator("cross tabulation needs raw p-values on every row")
    _validate_pvalues([r.p_raw for r in rows])
    m = len(report.rows)
    cells = [0, 0, 0, 0]
    for row in rows:
        zero = row.p_delta == 0.0
        if row.p_raw < alpha / m:
            cells[0 if zero else 1] += 1
        else:
            cells[2 if zero else 3] += 1
    return CrossTab(*cells)


def pointwise_track(
    series: Sequence[tuple[float, ExtendedInterval]], h0: NullSpec
) -> list[TrackPoint]:
    """Classify an interval time-series point by point (rug-plot data)."""
    if len(series) == 0:
        raise InvalidSeries("series is empty")
    ts = [t for t, _ in series]
    if not all(t2 > t1 for t1, t2 in zip(ts, ts[1:])):  # NaN fails too
        raise InvalidSeries("time points must be strictly increasing")
    verdicts = _verdicts([iv.lo for _, iv in series], [iv.hi for _, iv in series], h0)
    return [TrackPoint(t, p, cls) for t, (p, cls, _, _) in zip(ts, map(_bounded, verdicts))]


def ranked_indices(report: ScreenReport) -> list[int]:
    """Row indices in finding order: p_delta ascending, ties at zero by
    |delta_gap| descending, remaining ties by input position. Flagged rows
    are not ranked."""

    def sort_key(indexed: tuple[int, ScreenRow]) -> tuple[float, float, int]:
        idx, row = indexed
        gap = abs(row.delta_gap) if (row.p_delta == 0.0 and row.delta_gap is not None) else 0.0
        return (row.p_delta, -gap, idx)

    classified = [(i, r) for i, r in enumerate(report.rows) if r.p_delta is not None]
    return [i for i, _ in sorted(classified, key=sort_key)]


def rank_findings(report: ScreenReport) -> list[str]:
    """Order row ids: p_delta ascending, ties at zero by |delta_gap| descending."""
    return [report.rows[i].id for i in ranked_indices(report)]


def log10_interval(interval: ExtendedInterval) -> ExtendedInterval:
    """Map a positive-axis interval onto the log10 scale."""
    if interval.lo <= 0:
        raise InvalidInterval(
            f"log10 rescaling needs strictly positive endpoints, got {interval}"
        )
    return ExtendedInterval(math.log10(interval.lo), math.log10(interval.hi))
