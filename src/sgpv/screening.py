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

from scipy import stats as _scipy_stats

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


def two_sample_ci(
    a: GroupSummary, b: GroupSummary, level: float = 0.95, welch: bool = False
) -> tuple[float, ExtendedInterval, float]:
    """Difference in means (a - b): t interval and two-sided t-test p-value.

    Pooled-variance t by default; set ``welch=True`` for the
    Welch-Satterthwaite variant.
    """
    if not 0.0 < level < 1.0:
        raise InvalidProbability(f"confidence level must be in (0, 1), got {level!r}")
    estimate = a.mean - b.mean
    try:
        if welch:
            va, vb = a.sd**2 / a.n, b.sd**2 / b.n
            se = math.sqrt(va + vb)
            df = (va + vb) ** 2 / (va**2 / (a.n - 1) + vb**2 / (b.n - 1))
        else:
            pooled = ((a.n - 1) * a.sd**2 + (b.n - 1) * b.sd**2) / (a.n + b.n - 2)
            se = math.sqrt(pooled * (1.0 / a.n + 1.0 / b.n))
            df = float(a.n + b.n - 2)  # scipy rejects ints beyond int64
        t_stat = abs(estimate) / se
    except (OverflowError, ZeroDivisionError) as exc:
        raise InvalidSummary("the standard error of the difference under- or overflows") from exc
    t_crit = float(_scipy_stats.t.ppf(0.5 * (1.0 + level), df))
    p_value = float(2.0 * _scipy_stats.t.sf(t_stat, df))
    interval = ExtendedInterval(estimate - t_crit * se, estimate + t_crit * se)
    return estimate, interval, p_value


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
