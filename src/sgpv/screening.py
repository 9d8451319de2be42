"""Batch multiple-comparison screening and pointwise classification tracks.

Workflow: turn columns of study rows (confidence interval endpoints,
optionally with classical p-values) into second-generation p-values against
a shared interval null (``screen_intervals``), rank the definitive findings
by delta-gap (``ranked_indices``), and tabulate the verdicts against
classical multiplicity adjustments (Bonferroni and Benjamini-Hochberg).
Fold-change screens are handled on the log10 scale (``intervals.log10_array``);
the conventional "fold change beyond 2" null is ``core.FOLD_CHANGE_NULL``,
[-log10(2), +log10(2)].
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import types
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import CLASSES, NullSpec, _check_bounded, _count, classify_codes, p_delta_array
from .errors import (
    InvalidProbability,
    InvalidSeries,
    InvalidSummary,
    MissingComparator,
    check_probability,
)
from .intervals import ExtendedInterval


@dataclass(frozen=True)
class GroupSummary:
    """Summary statistics of one arm of a two-group comparison."""

    n: int
    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not self.n >= 2:  # NaN included
            raise InvalidSummary(f"group size must be >= 2, got {self.n!r}")
        if not (self.sd > 0 and math.isfinite(self.sd)):
            raise InvalidSummary(f"sd must be positive, got {self.sd!r}")


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


@dataclass(frozen=True, eq=False)
class ScreenReport:
    """A screen kept as columns, one entry per row in input order.

    p_delta is NaN on a flagged row (an estimate covering the whole real
    line) and delta_gap NaN wherever no gap is defined; p_raw is read only
    where has_p_raw is True. p_bonferroni and q_bh are None until
    ``attach_adjustments`` runs. Row k is index k of every column; its
    classification is ``core.CLASSES[classify_codes(p_delta)[k]]``.
    """

    ids: Sequence[str]
    p_delta: np.ndarray
    delta_gap: np.ndarray
    p_raw: np.ndarray
    has_p_raw: np.ndarray
    summary: ScreenSummary
    p_bonferroni: np.ndarray | None = None
    q_bh: np.ndarray | None = None

    @property
    def flagged(self) -> np.ndarray:
        return np.isnan(self.p_delta)


@dataclass(frozen=True)
class CrossTab:
    """2x2 counts of {p_delta = 0, p_delta > 0} x Bonferroni significance."""

    sgpv_zero_significant: int
    sgpv_positive_significant: int
    sgpv_zero_not_significant: int
    sgpv_positive_not_significant: int


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
    overflows (where Python floats raise, numpy would return inf or NaN),
    or an infinite group size in the pooled test; lo, hi and p_value are
    NaN there.

    Every value is bitwise what the Python float arithmetic of the scalar
    formulas gives: squares through ``np.float_power``, which is libm
    ``pow`` like Python's ``x**2`` (``x*x`` differs in the last bit), and
    the group sizes, the sizes less one and the pooled df ``n1 + n2 - 2``
    each rounded once from the exact whole numbers. The t quantile and
    tail are scipy's ufuncs, loaded by ``_t_ufuncs`` on first use, so
    that no other command pays for loading scipy.
    """
    check_probability("confidence level", level)
    stdtr, stdtrit = _t_ufuncs()

    sd1 = np.asarray(sd1, dtype=float)
    sd2 = np.asarray(sd2, dtype=float)
    with np.errstate(all="ignore"):
        f1, f1m, f2, f2m, pooled_df = _group_counts(n1, n2)  # inf - inf for infinite sizes
        invalid = invalid_summaries(f1, sd1) | invalid_summaries(f2, sd2)
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
            invalid |= np.isinf(pooled_df)  # a df that overflows, or a size of inf: inf / inf
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


def _t_ufuncs() -> tuple[np.ufunc, np.ufunc]:
    """scipy's ``stdtr`` and ``stdtrit``, without running the ``scipy.special`` package.

    Its ``__init__`` takes 0.23-0.30 s; the extension ``_ufuncs`` alone, under a bare
    parent removed at once, 0.02-0.04 s. Only with no other thread to see the parent;
    a loaded scipy.special is used, and any failure falls back to the plain import.
    """
    name = "scipy.special._ufuncs"
    loaded = sys.modules.get("scipy.special") or sys.modules.get(name)
    if loaded is not None:
        return loaded.stdtr, loaded.stdtrit
    if threading.active_count() == 1:
        bare = sys.modules["scipy.special"] = types.ModuleType("scipy.special")
        try:
            scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
            bare.__path__ = [os.path.join(scipy_dir, "special")]
            files = (os.path.join(bare.__path__[0], "_ufuncs" + suffix)
                     for suffix in importlib.machinery.EXTENSION_SUFFIXES)
            spec = importlib.util.spec_from_file_location(name, next(filter(os.path.isfile, files)))
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.stdtr, module.stdtrit
        except Exception:
            sys.modules.pop(name, None)
        finally:
            sys.modules.pop("scipy.special", None)
    from scipy.special import stdtr, stdtrit
    return stdtr, stdtrit


def invalid_summaries(n: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Where a group summary is one GroupSummary rejects: n below 2 or NaN,
    or an sd that is not positive and finite."""
    return ~(n >= 2.0) | ~((sd > 0.0) & np.isfinite(sd))


def _group_counts(n1, n2) -> tuple[np.ndarray, ...]:
    """float(n1), float(n1 - 1), float(n2), float(n2 - 1), float(n1 + n2 - 2).

    Each is the exact whole-number value rounded once. Float arithmetic is
    exact while n1 + n2 stays below 2**53; rows that reach it are redone
    in Python ints from the caller's own entries; a pooled df beyond the
    doubles is inf.
    """
    f1 = np.atleast_1d(np.asarray(n1, dtype=float))
    f2 = np.atleast_1d(np.asarray(n2, dtype=float))
    f1m, f2m, pooled_df = f1 - 1.0, f2 - 1.0, f1 + f2 - 2.0
    big = np.isfinite(f1) & np.isfinite(f2) & (np.abs(f1) + np.abs(f2) >= 2.0**53)
    for k in np.flatnonzero(big).tolist():
        a, b = int(n1[k]), int(n2[k])
        f1m[k], f2m[k] = float(a - 1), float(b - 1)
        try:
            pooled_df[k] = float(a + b - 2)
        except OverflowError:  # the pooled test rejects the row; Welch never reads it
            pooled_df[k] = math.inf
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


def screen_intervals(ids, lo, hi, p_raw, has_p_raw, h0: NullSpec) -> ScreenReport:
    """Second-generation p-values for columns of rows, kept in input order.

    ``ids``, the interval endpoints ``lo`` and ``hi`` and the raw p-values
    ``p_raw`` (read only where ``has_p_raw`` is True) hold one entry per row.
    Endpoints are taken to form valid intervals, as ExtendedInterval would
    require. A row whose interval covers the whole real line is flagged
    (p_delta NaN) instead of failing the screen.
    """
    _check_rows(ids=ids, lo=lo, hi=hi, p_raw=p_raw, has_p_raw=has_p_raw)
    p_delta, _, gap = p_delta_array(lo, hi, h0)
    p_raw = np.asarray(p_raw, dtype=float).reshape(p_delta.shape)
    has_p_raw = np.asarray(has_p_raw, dtype=bool).reshape(p_delta.shape)
    per_code = np.bincount(classify_codes(p_delta), minlength=len(CLASSES)).tolist()
    summary = ScreenSummary(len(p_delta), *per_code)  # alternative, null, inconclusive, flagged
    return ScreenReport(ids, p_delta, gap, p_raw, has_p_raw, summary)


def attach_adjustments(report: ScreenReport, alpha: float) -> ScreenReport:
    """Add Bonferroni-adjusted p-values and BH q-values to a report.

    Every row must carry a raw p-value; decision counts (strict ``<``
    thresholds) are added to the summary.
    """
    check_probability("alpha", alpha)
    if not report.has_p_raw.all():
        raise MissingComparator("every row needs a raw p-value to adjust")
    p_raw = report.p_raw
    _validate_pvalues(p_raw)
    p_bonferroni, significant = _bonferroni(p_raw, alpha)
    q_bh = _bh_array(p_raw)
    summary = replace(
        report.summary,
        n_bonferroni_significant=_count(significant),
        n_bh_significant=_count(q_bh < alpha),
        n_raw_significant=_count(p_raw < alpha),
    )
    return replace(report, p_bonferroni=p_bonferroni, q_bh=q_bh, summary=summary)


def valid_p_values(p: np.ndarray) -> np.ndarray:
    """Where ``p`` holds a p-value: a number in [0, 1], where 0 stands for a
    p-value below the smallest double (a t-test tail that underflows)."""
    return (p >= 0.0) & (p <= 1.0)


def _validate_pvalues(p: np.ndarray, given: Sequence | None = None) -> None:
    """Raise at the first entry of ``p`` that is no p-value, quoting the
    caller's own entry of ``given`` (``p`` as floats where it is None)."""
    bad = np.flatnonzero(~valid_p_values(p))
    if bad.size:
        k = int(bad[0])
        value = p[k].item() if given is None else given[k]
        raise InvalidProbability(f"p-values must lie in [0, 1], got {value!r}")


def _bonferroni(p_raw: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """min(1, m p) and p < alpha / m over a family of m = len(p_raw) rows: every
    row of a screen, flagged ones and those without a p-value (NaN) included."""
    m = len(p_raw)
    significant = p_raw < alpha / m if m else np.zeros(0, dtype=bool)
    return np.minimum(1.0, m * p_raw), significant


def bonferroni_flags(p_values: Sequence[float], alpha: float) -> list[bool]:
    """Family-wise significance flags: p < alpha / m."""
    check_probability("alpha", alpha)
    p = np.asarray(p_values, dtype=float)
    _validate_pvalues(p, p_values)
    return _bonferroni(p, alpha)[1].tolist()


def bh_qvalues(p_values: Sequence[float]) -> list[float]:
    """Benjamini-Hochberg step-up q-values, returned in input order.

    q at ascending rank i is min over j >= i of m * p_(j) / j, capped at 1.
    """
    p = np.asarray(p_values, dtype=float)
    _validate_pvalues(p, p_values)
    return _bh_array(p).tolist()


def _bh_array(p: np.ndarray) -> np.ndarray:
    """q-values of valid p-values: a stable sort, then a running minimum from
    the largest rank down, each term rounded as ``m * p / rank``."""
    m = len(p)
    order = np.argsort(p, kind="stable")
    step = m * p[order] / np.arange(1, m + 1, dtype=float)
    q = np.empty(m)
    q[order] = np.minimum.accumulate(np.minimum(step[::-1], 1.0))[::-1]
    return q


def cross_tab(report: ScreenReport, alpha: float) -> CrossTab:
    """Cross-tabulate definitive sgpv findings against Bonferroni decisions.

    The Bonferroni family is every row of the report: a row is significant
    when p_raw < alpha / m with m = len(report.ids), the same m as in
    ``p_bonferroni`` and the summary counts. Flagged rows count toward m
    but have no verdict, so they fall in no cell; every other row must
    carry a raw p-value.
    """
    check_probability("alpha", alpha)
    kept = ~report.flagged
    if not report.has_p_raw[kept].all():
        raise MissingComparator("cross tabulation needs raw p-values on every row")
    _validate_pvalues(report.p_raw[kept])
    significant = _bonferroni(report.p_raw, alpha)[1][kept]
    zero = report.p_delta[kept] == 0.0
    return CrossTab(
        _count(zero & significant),
        _count(~zero & significant),
        _count(zero & ~significant),
        _count(~zero & ~significant),
    )


def _check_rows(**columns) -> None:
    """Raise InvalidSeries unless every column holds one entry per row (a scalar is one)."""
    lengths = {name: len(c) if np.iterable(c) else 1 for name, c in columns.items()}
    if len(set(lengths.values())) > 1:
        raise InvalidSeries("columns must have one entry per row, got "
                            + ", ".join(f"{name} {n}" for name, n in lengths.items()))


def unordered_times(t: np.ndarray) -> np.ndarray:
    """Where a time point is NaN or does not exceed the one before it."""
    return np.isnan(t) | np.append(False, ~(t[1:] > t[:-1]))


def track_arrays(t, lo, hi, h0: NullSpec) -> tuple[np.ndarray, np.ndarray]:
    """Classify an interval time series point by point (rug-plot data).

    ``t``, ``lo`` and ``hi`` are one entry per point. Returns p_delta and the
    classification codes (indices into ``core.CLASSES``). Raises InvalidSeries
    for columns of different lengths, an empty series or a time point
    ``unordered_times`` marks, and UnboundedEstimate for an estimate covering
    the whole real line."""
    _check_rows(t=t, lo=lo, hi=hi)
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise InvalidSeries("series is empty")
    if unordered_times(t).any():
        raise InvalidSeries("time points must be strictly increasing")
    p, _, _ = p_delta_array(lo, hi, h0)
    _check_bounded(p)
    return p, classify_codes(p)


def ranked_indices(report: ScreenReport) -> list[int]:
    """Row indices in finding order: p_delta ascending, ties at zero by
    |delta_gap| descending, remaining ties by input position. Flagged rows
    are not ranked."""
    ranked = np.flatnonzero(~report.flagged)
    p = report.p_delta[ranked]
    gap = report.delta_gap[ranked]
    size = np.where((p == 0.0) & ~np.isnan(gap), np.abs(gap), 0.0)
    return ranked[np.lexsort((-size, p))].tolist()  # lexsort is stable
