"""Batch command line front end.

Subcommands: compute, design, reliability, screen, track, simulate.
Exit codes: 0 on success; 2 for an input error (_InputError), which names
its line unless it concerns the file or its header; 3 for a configuration
or write error: any SgpvError (the CLI raises errors.InvalidConfig) or a
MemoryError; 130 on an interrupt. A failed run removes the --out it created.
run() and python -m sgpv.cli turn the cyclic garbage collector off and freeze
what is live before exit, which leaves the teardown collections nothing to
walk; main() and an import leave the collector alone. Every option is
declared once, in OPTIONS: a flag wins over the same key in a JSON config
file (--config), which wins over the default, and both are checked by the
option's kind. An input's byte-order mark is dropped.
Floats in CSV output are rounded to --digits significant digits; JSON
output keeps full precision.
"""

from __future__ import annotations

import gc
import sys

if __name__ == "__main__":  # python -m sgpv.cli: collect nothing while the modules load
    gc.disable()

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
from dataclasses import asdict
from itertools import compress, repeat
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np

from . import _table
from .core import CLASSES, FOLD_CHANGE_NULL, Classification, NullSpec, classify_codes, p_delta_array
from .errors import InvalidConfig, SgpvError
from .intervals import (
    ExtendedInterval, invalid_intervals, log10_array, log10_interval, z_endpoints, z_interval,
)

# design, reliability, screening and simulate are imported where used: a command loads what it runs

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_INTERRUPT = 130

# cell labels of the code columns
CLASS_LABELS = tuple(c and c.value for c in CLASSES)
INCONCLUSIVE = CLASSES.index(Classification.INCONCLUSIVE)
FLAG_LABELS = ("", "unbounded_estimate")


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InvalidConfig(message)

    def _parse_optional(self, arg_string: str):
        """argparse's, but any argument float() reads as negative (-1e308, -inf) is a value."""
        with contextlib.suppress(ValueError):
            if float(arg_string) < 0.0:
                return None
        return super()._parse_optional(arg_string)


# ----------------------------------------------------------------- helpers


def _resolve_null(resolved: dict) -> NullSpec:
    point, delta, lo, hi = (resolved[k] for k in ("null_point", "delta", "null_lo", "null_hi"))
    point_form = point is not None or delta is not None
    range_form = lo is not None or hi is not None
    if point_form and range_form:
        raise InvalidConfig("give either --null-point/--delta or --null-lo/--null-hi, not both")
    if point_form:
        if point is None or delta is None:
            raise InvalidConfig("--null-point and --delta must be given together")
        return NullSpec.symmetric(point, delta)
    if range_form:
        if lo is None or hi is None:
            raise InvalidConfig("--null-lo and --null-hi must be given together")
        return NullSpec.from_interval(lo, hi)
    if resolved.get("log10"):  # only compute and screen take --log10
        return FOLD_CHANGE_NULL
    raise InvalidConfig("an interval null is required: --null-point/--delta or --null-lo/--null-hi")


def _resolve_design(resolved: dict):
    from .design import DesignConfig
    values = []
    for name in ("theta0", "delta", "n", "variance"):
        if resolved[name] is None:
            raise InvalidConfig(f"--{name} is required")
        values.append(resolved[name])
    return DesignConfig(*values, resolved["alpha"])


def _resolve_grid(resolved: dict) -> np.ndarray:
    grid, thetas = resolved["grid"], resolved["thetas"]
    if grid is not None and thetas is not None:
        raise InvalidConfig("give either --grid or --thetas, not both")
    if grid is not None:
        parts = grid.split(":")
        if len(parts) != 3:
            raise InvalidConfig(f"grid must look like LO:HI:COUNT, got {grid!r}")
        try:
            lo, hi = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise InvalidConfig(f"malformed grid spec {grid!r}: {exc}") from exc
        if count < 1 or not math.isfinite(lo) or not math.isfinite(hi) or lo > hi:
            raise InvalidConfig(f"malformed grid spec {grid!r}")
        try:
            if abs(hi - lo) < 2.0**1023:
                return np.linspace(lo, hi, count)
            grid = 2.0 * np.linspace(0.5 * lo, 0.5 * hi, count)  # hi - lo overflows at full scale
            grid[-1], grid[0] = hi, lo  # halving rounds a subnormal end; one point is lo
            return grid
        except (ValueError, IndexError) as exc:  # numpy's answers to counts beyond its index range
            raise InvalidConfig(f"cannot build a grid of {count} points: {exc}") from exc
    if thetas is None:
        raise InvalidConfig("a grid is required: --grid LO:HI:COUNT or --thetas a,b,c")
    values = thetas  # a config file's JSON array, already numbers
    if isinstance(thetas, str):
        try:
            values = [float(t) for t in thetas.split(",") if t.strip() != ""]
        except ValueError as exc:
            raise InvalidConfig(f"malformed theta list {thetas!r}: {exc}") from exc
    if not values:
        raise InvalidConfig("theta list is empty")
    if any(map(math.isnan, values)):
        raise InvalidConfig(f"theta list {thetas!r} holds a NaN")
    return np.array(values)


class _Numbers:
    """A number column of a plain table: its floats, and row k's field text when asked."""

    def __init__(self, values: np.ndarray, lines: list[str], index: int):
        self.values, self._lines, self._index = values, lines, index

    def __getitem__(self, k: int) -> str:
        return self._lines[k].split(",")[self._index]


class _Table(NamedTuple):
    """The data rows of an input CSV by column, fields as read, blank rows dropped."""

    cells: dict  # by stripped, lower-cased header: fields (None past a row's end) or _Numbers
    lines: Sequence[int]  # the 1-based record number of each row


def _read_table(path: str, names: Sequence[str]) -> _Table:
    """The columns ``names`` that the header of the UTF-8 CSV at ``path`` ('-': stdin) holds once.

    ``_plain_table`` reads the text with str.split and one np.loadtxt call for the number
    columns (all names but id). It declines, and ``_csv_table`` (csv.reader, float()) reads it,
    on non-ASCII text, a '"', an ASCII control character but newline and tab, a line over the
    csv field limit, no data row, a column named twice, no number column, a row whose field
    count is not the header's, or a cell loadtxt refuses (so a blank row).
    """
    try:
        if path == "-":
            if sys.stdin is None:  # the process started with stdin closed
                raise _InputError("cannot read -: stdin is closed")
            stdin = getattr(sys.stdin, "buffer", None)  # a text stand-in may have none
            text = sys.stdin.read() if stdin is None else stdin.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    text = text.removeprefix("\ufeff")  # U+FEFF: byte-order mark
    return _plain_table(text, names) or _csv_table(text, names, path)


_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n"  # printable ASCII but '"'


def _plain_table(text: str, names: Sequence[str]) -> _Table | None:
    """The table ``_csv_table`` reads from ``text``, or None where this path cannot promise it."""
    if not text.isascii() or text.encode().translate(None, _PLAIN):  # isascii() is O(1)
        return None
    lines = text.removesuffix("\n").split("\n")  # the final newline ends the last row
    header, body = [name.strip().lower() for name in lines[0].split(",")], lines[1:]
    numbers = [i for i, name in enumerate(header) if name in names and name != "id"]
    if (not numbers or "" in body  # loadtxt skips an empty line
            or max(map(len, lines)) > csv.field_size_limit()
            or any(header.count(name) > 1 for name in names)
            or set(map(str.count, body, repeat(","))) != {len(header) - 1}):  # set() if no row
        return None
    try:
        values = np.loadtxt(body, delimiter=",", usecols=numbers, dtype=float, ndmin=2,
                            comments=None, quotechar=None)
    except ValueError:  # a cell loadtxt refuses
        return None
    cells = {header[i]: _Numbers(col, body, i) for i, col in zip(numbers, values.T.copy())}
    if "id" in names and "id" in header:
        i = header.index("id")
        cells["id"] = [line.split(",", i + 1)[i] for line in body]
    return _Table(cells, range(2, len(body) + 2))


def _csv_table(text: str, names: Sequence[str], path: str) -> _Table:
    """The table ``csv.reader`` reads from ``text``, the input at ``path``."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise _InputError(f"line {reader.line_num}: {exc}") from exc
    # a row is blank exactly when its joined fields strip to nothing
    kept = list(map(bool, map(str.strip, map("".join, rows))))
    lines = list(compress(range(1, len(rows) + 1), kept))
    if len(lines) < len(rows):
        rows = list(compress(rows, kept))
    if not rows:
        raise _InputError(f"{path}: empty input (a header row is required)")
    header = [name.strip().lower() for name in rows.pop(0)]
    for name in names:
        if header.count(name) > 1:
            raise _InputError(f"input needs one {name!r} column, got {header.count(name)}")
    cells = {name: [row[i] if i < len(row) else None for row in rows]
             for i, name in enumerate(header) if name in names}
    return _Table(cells, lines[1:])


def _column(table: _Table, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Column ``name`` as floats over every row, and where its cell reads as a number.

    A missing cell, or a cell that is not a number, gives NaN and False.
    """
    cells, count = table.cells[name], len(table.lines)
    if isinstance(cells, _Numbers):  # the plain path's: every cell is a number
        return cells.values, np.ones(count, bool)
    values, readable = np.full(count, np.nan), np.zeros(count, dtype=bool)
    for k, cell in enumerate(cells):
        try:
            values[k], readable[k] = float(cell), True
        except (TypeError, ValueError):
            pass
    return values, readable


# An input rule is (mask, why): the mask marks the rows that fail it, and
# why(k) returns row k's message or calls the library constructor that
# raises it. Each input form lists its rules in the order a line is checked.
_Rule = tuple[np.ndarray, Callable[[int], object]]


def _check(table: _Table, rules: Sequence[_Rule]) -> None:
    """Raise the input error of the first row any rule marks, from the first rule marking it.

    A mask may mark anything on a row that an earlier rule marks.
    """
    failing = np.logical_or.reduce([mask for mask, _ in rules])
    if not failing.any():
        return
    k = int(failing.argmax())
    why = next(why for mask, why in rules if mask[k])
    try:
        message = why(k)
    except SgpvError as exc:
        message = exc
    raise _InputError(f"line {table.lines[k]}: {message}")


def _per_row(make: Callable, *columns: np.ndarray) -> Callable[[int], object]:
    """Row k's ``make(...)``, called on that row's values of ``columns`` as Python floats."""
    return lambda k: make(*(column[k].item() for column in columns))


def _read_numbers(table: _Table, names: Sequence[str]) -> tuple[list[np.ndarray], list[_Rule]]:
    """Columns ``names`` as floats, and for each the rule that its cells read as numbers."""
    columns, rules = [], []
    for name in names:
        values, readable = _column(table, name)
        columns.append(values)
        rules.append((~readable, lambda k, name=name: f"bad value for {name!r}"))
    return columns, rules


def _id_rule(table: _Table) -> _Rule:
    missing = np.array([cell is None for cell in table.cells["id"]], dtype=bool)
    return missing, lambda k: "missing value for 'id'"


def _interval_rules(interval: Callable, lo: np.ndarray, hi: np.ndarray, log10_mode: bool = False):
    """The rules that row k's ``interval(k)``, which spans [lo, hi], is an
    ExtendedInterval and, under --log10, has positive endpoints."""
    rules = [(invalid_intervals(lo, hi), interval)]
    if log10_mode:
        rules.append((lo <= 0.0, lambda k: log10_interval(interval(k))))
    return rules


def _p_value_rule(p: np.ndarray, present=True) -> _Rule:
    """The rule that a p-value, where ``present``, lies in [0, 1]."""
    from .screening import valid_p_values
    return (present & ~valid_p_values(p),
            lambda k: f"p-value must lie in [0, 1], got {p[k].item()!r}")


class _Output(NamedTuple):
    """A handler's table (or None), the entries after its rows in JSON, and a CSV stdout block."""

    columns: Sequence[_table.Column] | None
    extra: dict = {}
    trailer: str = ""


def _verdict_columns(p_delta: np.ndarray, delta_gap: np.ndarray) -> list[_table.Column]:
    """p_delta and classification, empty on a whole-line estimate, and the delta-gap."""
    return [
        _table.floats("p_delta", p_delta, np.isnan(p_delta)),
        _table.codes("classification", classify_codes(p_delta), CLASS_LABELS),
        _table.floats("delta_gap", delta_gap, np.isnan(delta_gap)),
    ]


def _flags(p_delta: np.ndarray) -> _table.Column:
    return _table.codes("flags", np.isnan(p_delta), FLAG_LABELS)


# ---------------------------------------------------------------- compute


def _compute_intervals(path: str, level: float, log10_mode: bool):
    """ids and interval endpoints of a compute input, every row checked at once."""
    table = _read_table(path, ("id", "lo", "hi", "estimate", "se"))
    cols = table.cells
    if "lo" in cols and "hi" in cols:
        (lo, hi), rules = _read_numbers(table, ("lo", "hi"))
        interval = _per_row(ExtendedInterval, lo, hi)
    elif "estimate" in cols and "se" in cols:
        (estimate, se), rules = _read_numbers(table, ("estimate", "se"))
        interval = _per_row(functools.partial(z_interval, level=level), estimate, se)
        rules.append((~(se > 0.0), interval))
        lo, hi = z_endpoints(estimate, se, level)  # z_interval's own arithmetic
    else:
        raise _InputError("input needs either lo,hi or estimate,se columns (id optional)")
    if "id" in cols:
        rules.insert(0, _id_rule(table))
    _check(table, rules + _interval_rules(interval, lo, hi, log10_mode))
    if log10_mode:
        lo, hi = log10_array(lo), log10_array(hi)
    ids = list(map(str.strip, cols["id"]) if "id" in cols else map(str, range(1, len(lo) + 1)))
    return ids, lo, hi


def _cmd_compute(resolved: dict) -> _Output:
    null_spec = _resolve_null(resolved)
    ids, lo, hi = _compute_intervals(resolved["input"], resolved["level"], resolved["log10"])
    p_delta, corrected, gap = p_delta_array(lo, hi, null_spec)
    p_col, class_col, gap_col = _verdict_columns(p_delta, gap)
    corrected = np.where(np.isnan(p_delta), 2, corrected)  # code 2: an empty cell
    return _Output([
        _table.texts("id", ids), _table.floats("lo", lo), _table.floats("hi", hi),
        p_col, class_col, _table.codes("correction_applied", corrected, _table.BOOL_LABELS),
        gap_col, _flags(p_delta),
    ])


# ----------------------------------------------------- design, reliability


def _curve_columns(names: Sequence[str], grid: np.ndarray, values) -> list[_table.Column]:
    """The grid and its curves; an all-None curve (an undefined FCR) is a blank column."""
    return [
        _table.blank(name) if column.dtype == object else _table.floats(name, column)
        for name, column in zip(names, (grid, *values))
    ]


def _cmd_design(resolved: dict) -> _Output:
    from .design import POWER_CURVE_COLUMNS, outcome_probs_array
    cfg = _resolve_design(resolved)
    grid = _resolve_grid(resolved)
    return _Output(_curve_columns(POWER_CURVE_COLUMNS, grid, outcome_probs_array(grid, cfg)))


def _cmd_reliability(resolved: dict) -> _Output:
    from .reliability import RELIABILITY_CURVE_COLUMNS, PriorOdds, reliability_rates_array
    cfg = _resolve_design(resolved)
    if resolved["r"] is None:
        raise InvalidConfig("--r (prior odds) is required")
    odds = PriorOdds(resolved["r"])
    grid = _resolve_grid(resolved)
    values = reliability_rates_array(grid, cfg, odds)
    return _Output(_curve_columns(RELIABILITY_CURVE_COLUMNS, grid, values))


# ------------------------------------------------------------------ screen


def _screen_intervals(table: _Table, log10_mode: bool, crosstab: bool):
    """lo, hi, p_raw and its presence mask of an id,[estimate,]lo,hi[,p_value] input;
    with a p_value column, --crosstab needs a p-value on every row."""
    cols = table.cells
    names = ("lo", "hi", "estimate") if "estimate" in cols else ("lo", "hi")
    (lo, hi, *_), rules = _read_numbers(table, names)
    p_raw, has_p_raw = np.full(len(lo), np.nan), np.zeros(len(lo), dtype=bool)
    if "p_value" in cols:  # a missing or blank p_value cell is no p-value
        p_raw, readable = _column(table, "p_value")
        has_p_raw = readable.copy()  # a number is neither missing nor blank
        for k in np.flatnonzero(~readable):
            has_p_raw[k] = cols["p_value"][k] is not None and cols["p_value"][k].strip() != ""
        rules.append((has_p_raw & ~readable, lambda k: "bad value for 'p_value'"))
    rules += _interval_rules(_per_row(ExtendedInterval, lo, hi), lo, hi, log10_mode)
    rules = [_id_rule(table), *rules, _p_value_rule(p_raw, has_p_raw)]
    if crosstab and "p_value" in cols:
        rules.append((~has_p_raw, lambda k: "missing value for 'p_value' "
                                            "(--crosstab needs a p-value on every row)"))
    _check(table, rules)
    if log10_mode:
        lo, hi = log10_array(lo), log10_array(hi)
    return lo, hi, p_raw, has_p_raw


def _group(table: _Table, g: str):
    """Group ``g``'s n, mean and sd columns, its rules (cells, then the
    summary) and its per-row GroupSummary."""
    from .screening import GroupSummary, invalid_summaries
    name = "n" + g
    (n, mean, sd), (n_rule, *rules) = _read_numbers(table, (name, "mean" + g, "sd" + g))
    cells = table.cells[name]

    def summary(k: int) -> GroupSummary:
        return GroupSummary(int(n[k]), mean[k].item(), sd[k].item())

    whole = (~(np.isfinite(n) & (n == np.floor(n))),
             lambda k: f"{name!r} must be a whole number, got {cells[k].strip()!r}")
    return (n, mean, sd), [n_rule, whole, *rules, (invalid_summaries(n, sd), summary)], summary


def _group_intervals(table: _Table, level: float, welch: bool):
    """lo, hi, p_raw and has_p_raw (all True) of a two-group input: one array t-test.

    Within a line the first group's summary is checked before the second
    group is read.
    """
    from .screening import two_sample_ci, two_sample_ci_array
    first, first_rules, first_summary = _group(table, "1")
    second, second_rules, second_summary = _group(table, "2")
    _, lo, hi, p_raw, _ = two_sample_ci_array(*first, *second, level, welch)

    def t_test(k: int):
        return two_sample_ci(first_summary(k), second_summary(k), level, welch)

    rules = [_id_rule(table), *first_rules, *second_rules]
    rules += _interval_rules(t_test, lo, hi)  # lo, hi are NaN where two_sample_ci raises
    _check(table, [*rules, _p_value_rule(p_raw)])
    return lo, hi, p_raw, np.ones(len(p_raw), dtype=bool)


def _cmd_screen(resolved: dict) -> _Output:
    from .screening import attach_adjustments, cross_tab, ranked_indices, screen_intervals
    log10_mode, alpha, want_crosstab = resolved["log10"], resolved["alpha"], resolved["crosstab"]
    null_spec = _resolve_null(resolved)

    table = _read_table(resolved["input"], ("id", "estimate", "lo", "hi", "p_value",
                                            "n1", "mean1", "sd1", "n2", "mean2", "sd2"))
    cols = table.cells
    if {"id", "lo", "hi"} <= set(cols):  # wins over the two-group columns
        lo, hi, p_raw, has_p_raw = _screen_intervals(table, log10_mode, want_crosstab)
        have_pvalues = "p_value" in cols and bool(has_p_raw.all())
    elif {"id", "n1", "mean1", "sd1", "n2", "mean2", "sd2"} <= set(cols):
        if log10_mode:
            raise InvalidConfig("--log10 applies to interval inputs; two-group summaries are "
                                "analyzed on the scale they are given")
        lo, hi, p_raw, has_p_raw = _group_intervals(table, resolved["level"], resolved["welch"])
        have_pvalues = True
    else:
        raise _InputError("input needs id,estimate,lo,hi[,p_value] or "
                          "id,n1,mean1,sd1,n2,mean2,sd2 columns")
    report = screen_intervals(list(map(str.strip, cols["id"])), lo, hi, p_raw, has_p_raw,
                              null_spec)
    if have_pvalues:
        report = attach_adjustments(report, alpha)
    if want_crosstab and not have_pvalues:
        raise InvalidConfig("--crosstab needs a p_value column (or two-group input)")

    rank = np.zeros(len(report.ids), dtype=np.int64)  # 0: not ranked
    order = ranked_indices(report)
    rank[order] = np.arange(1, len(order) + 1)
    p_col, class_col, gap_col = _verdict_columns(report.p_delta, report.delta_gap)
    adjusted = [
        _table.blank(name) if column is None else _table.floats(name, column)
        for name, column in (("p_bonferroni", report.p_bonferroni), ("q_bh", report.q_bh))
    ]
    columns = [
        _table.texts("id", report.ids), p_col, class_col, gap_col,
        _table.floats("p_raw", report.p_raw, ~report.has_p_raw), *adjusted,
        _table.ints("rank", rank, rank == 0), _flags(report.p_delta),
    ]
    extra = {"summary": asdict(report.summary)}
    if not want_crosstab:
        return _Output(columns, extra)
    tab = cross_tab(report, alpha)
    extra["crosstab"] = asdict(tab)
    return _Output(columns, extra, _table.csv_text([
        _table.texts("crosstab", ["bonferroni_significant", "bonferroni_not_significant"]),
        _table.ints("p_delta_zero", [tab.sgpv_zero_significant, tab.sgpv_zero_not_significant]),
        _table.ints("p_delta_positive",
                    [tab.sgpv_positive_significant, tab.sgpv_positive_not_significant]),
    ]))


# ------------------------------------------------------------------- track


def _cmd_track(resolved: dict) -> _Output:
    from .screening import track_arrays, unordered_times
    null_spec = _resolve_null(resolved)

    table = _read_table(resolved["input"], ("t", "lo", "hi"))
    if not {"t", "lo", "hi"} <= set(table.cells):
        raise _InputError("input needs t,lo,hi columns")
    if not table.lines:
        raise _InputError("series is empty")
    (t, lo, hi), rules = _read_numbers(table, ("t", "lo", "hi"))

    def pair(k: int):  # rows k - 1 (which passes every rule) and k as a series of their own
        return track_arrays(*(column[max(k - 1, 0):k + 1] for column in (t, lo, hi)), null_spec)

    _check(table, [*rules, *_interval_rules(_per_row(ExtendedInterval, lo, hi), lo, hi),
                   (unordered_times(t), pair), (np.isinf(lo) & np.isinf(hi), pair)])
    del table
    p_delta, code = track_arrays(t, lo, hi, null_spec)
    return _Output([
        _table.floats("t", t), _table.floats("p_delta", p_delta),
        _table.codes("classification", code, CLASS_LABELS),
        _table.floats("grey_level", p_delta, code != INCONCLUSIVE),
    ])


# ---------------------------------------------------------------- simulate


def _cmd_simulate(resolved: dict) -> _Output:
    from .design import POWER_CURVE_COLUMNS, outcome_probs_array
    from .reliability import PriorOdds, reliability_rates_array
    from .simulate import SimConfig, simulate_outcomes, simulate_reliability
    design = _resolve_design(resolved)
    theta = design.theta0 if resolved["theta"] is None else resolved["theta"]
    if resolved["replicates"] is None:
        raise InvalidConfig("--replicates is required")
    seed, chunks, theta1, r = (resolved[name] for name in ("seed", "chunks", "theta1", "r"))
    if (theta1 is None) != (r is None):
        raise InvalidConfig("--theta1 and --r must be given together")

    sim_cfg = SimConfig(design, theta, resolved["replicates"], seed)
    result = simulate_outcomes(sim_cfg, chunks=chunks)
    empirical = asdict(result.empirical)
    closed = {name: p.item() for name, p in
              zip(POWER_CURVE_COLUMNS[1:], outcome_probs_array([theta], design))}
    z_scores = {}
    for name, p in closed.items():
        se = math.sqrt(p * (1.0 - p) / sim_cfg.replicates)
        z_scores[name] = None if se == 0.0 else (empirical[name] - p) / se
    payload = {
        "empirical": empirical,
        "closed_form": closed,
        "z_scores": z_scores,
        "counts": dict(zip(("alt", "null", "inconclusive"), result.counts)),
        "replicates": sim_cfg.replicates,
        "seed": seed,
    }
    if theta1 is not None:
        odds = PriorOdds(r)
        rel = simulate_reliability(sim_cfg, odds, theta1, chunks=chunks)
        fdr, fcr, _, _ = reliability_rates_array([theta1], design, odds)
        payload["reliability"] = {
            "empirical_fdr": rel.empirical_fdr,
            "empirical_fcr": rel.empirical_fcr,
            "closed_form_fdr": fdr.item(),
            "closed_form_fcr": fcr.item(),
            "n_discoveries": rel.n_discoveries,
            "n_confirmations": rel.n_confirmations,
        }
    return _Output(None, payload)


# ------------------------------------------------------ options and parser


def _number(opt: Option, value) -> float:
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            return float(value)
    raise InvalidConfig(f"{opt.name} must be a number, got {value!r}")


def _integer(opt: Option, value) -> int:
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return int(value)
    raise InvalidConfig(f"{opt.name} must be an integer, got {value!r}")


def _unit(opt: Option, value) -> float:
    """A level or rate, which must lie in (0, 1)."""
    if 0.0 < _number(opt, value) < 1.0:
        return float(value)
    raise InvalidConfig(f"{opt.name} must be in (0, 1), got {value!r}")


def _boolean(opt: Option, value) -> bool:
    if isinstance(value, bool):
        return value
    raise InvalidConfig(f"{opt.name} must be true or false, got {value!r}")


def _choice(opt: Option, value) -> str:
    if value in opt.choices:
        return value
    raise InvalidConfig(f"{opt.name} must be one of {', '.join(opt.choices)}, got {value!r}")


def _text(opt: Option, value) -> str:
    if isinstance(value, str):
        return value
    raise InvalidConfig(f"{opt.name} must be a string, got {value!r}")


def _numbers(opt: Option, value) -> str | list[float]:
    """A comma-separated string as given, or a number or JSON array of numbers as a list."""
    if isinstance(value, str):
        return value
    return [_number(opt, v) for v in (value if isinstance(value, list) else [value])]


class Option(NamedTuple):
    """One option: config key ``name``, flag ``--name`` with '-' for '_'."""

    name: str
    kind: Callable  # checks and converts a flag or config value: _number, _integer, ...
    default: object  # None: unset unless a handler requires it
    commands: tuple[str, ...]
    help: str
    choices: tuple[str, ...] = ()


_NULL = ("compute", "screen", "track")
_DESIGN = ("design", "reliability", "simulate")
_CURVES = ("design", "reliability")
_TABLES = ("compute", "design", "reliability", "screen", "track")

OPTIONS = (
    Option("null_point", _number, None, _NULL, "center of the interval null"),
    Option("delta", _number, None, _NULL + _DESIGN, "half-width of the interval null"),
    Option("null_lo", _number, None, _NULL, "lower edge of the interval null"),
    Option("null_hi", _number, None, _NULL, "upper edge of the interval null"),
    Option("theta0", _number, None, _DESIGN, "point null"),
    Option("n", _number, None, _DESIGN, "sample size"),
    Option("variance", _number, None, _DESIGN, "V in the standard error sqrt(V / n)"),
    Option("alpha", _unit, 0.05, ("screen",) + _DESIGN, "significance level / interval miss rate"),
    Option("level", _unit, 0.95, ("compute", "screen"), "confidence level of z and t intervals"),
    Option("log10", _boolean, False, ("compute", "screen"), "map intervals onto the log10 scale"),
    Option("welch", _boolean, False, ("screen",), "Welch t instead of pooled variance"),
    Option("crosstab", _boolean, False, ("screen",), "add the sgpv x Bonferroni cross-tab"),
    Option("r", _number, None, ("reliability", "simulate"), "prior odds P(H1)/P(H0)"),
    Option("grid", _text, None, _CURVES, "evaluation grid LO:HI:COUNT"),
    Option("thetas", _numbers, None, _CURVES, "explicit comma-separated grid"),
    Option("theta", _number, None, ("simulate",), "data-generating truth (default: theta0)"),
    Option("replicates", _integer, None, ("simulate",), "number of replicates"),
    Option("seed", _integer, 0, ("simulate",), "PRNG seed"),
    Option("chunks", _integer, 1, ("simulate",), "work partitions (result-invariant)"),
    Option("theta1", _number, None, ("simulate",), "alternative for the reliability check"),
    Option("out", _text, None, _TABLES + ("simulate",), "output file (default: stdout)"),
    Option("format", _choice, "csv", _TABLES, "output format", ("csv", "json")),
    Option("format", _choice, "json", ("simulate",), "output format", ("json",)),
    Option("digits", _integer, 6, _TABLES, "significant digits in CSV output"),
)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidConfig(f"config file {path} must hold a JSON object")
    return cfg


# name: (handler, help, help of the input CSV argument or None)
_COMMANDS = {
    "compute": (_cmd_compute, "per-row second-generation p-values",
                "CSV with id,lo,hi or id,estimate,se columns ('-' for stdin)"),
    "design": (_cmd_design, "outcome probability curves over true effects", None),
    "reliability": (_cmd_reliability, "false discovery / confirmation rate curves", None),
    "screen": (_cmd_screen, "batch screening with multiplicity comparators",
               "CSV with id,estimate,lo,hi[,p_value] or two-group summaries"),
    "track": (_cmd_track, "pointwise classification of an interval series",
              "CSV with t,lo,hi columns"),
    "simulate": (_cmd_simulate, "Monte Carlo check of the closed forms (JSON)", None),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sgpv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, input_help) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(handler=handler, input=None)
        if input_help is not None:
            p.add_argument("input", help=input_help)
        for opt in (opt for opt in OPTIONS if command in opt.commands):
            default = "" if opt.default is None else f" (default: {opt.default})"
            p.add_argument("--" + opt.name.replace("_", "-"), help=opt.help + default,
                           choices=opt.choices or None,
                           action=argparse.BooleanOptionalAction if opt.kind is _boolean else None)
        p.add_argument("--config", help="JSON file with default option values")
    return parser


def _open_out(path: str | None) -> tuple[TextIO | None, bool]:
    """The --out file (None for stdout), opened but left as is, and whether this run created it."""
    if path is None or path == "-":
        if sys.stdout is None:  # the process started with stdout closed
            raise InvalidConfig("cannot write stdout: it is closed")
        return None, False
    mode = "a" if os.path.lexists(path) else "x"  # "x": remove no file this run did not make
    try:
        return open(path, mode, encoding="utf-8"), mode == "x"
    except OSError as exc:
        raise InvalidConfig(f"cannot write {path}: {exc}") from exc


def _stdout() -> TextIO:
    """sys.stdout, or when it has no buffer (PYTHONUNBUFFERED) a buffered stream on
    its descriptor, which closing leaves open: a TextIOWrapper over a raw file drops
    the rest of a short write, where a BufferedWriter writes on until all is out or fails."""
    _open_out(None)  # raises if stdout is closed
    if not isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        return sys.stdout
    return open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                errors=sys.stdout.errors, closefd=False)


def _write(result: _Output, resolved: dict, out: TextIO | None) -> None:
    """Write a handler's result in its --format to ``out``, or stdout when None."""
    fh, name = (_stdout(), "stdout") if out is None else (out, resolved["out"])
    try:
        if out is not None and os.path.isfile(resolved["out"]):
            out.truncate(0)  # opened to append, so that a failed run leaves it as it was
        if resolved["format"] == "json":
            _table.write_json(fh, result.columns, **result.extra)
        else:
            _table.write_csv(fh, result.columns, resolved["digits"])
            if result.trailer:
                fh.flush()
                name, fh = "stdout", _stdout()
                fh.write(result.trailer if out is not None else "\n" + result.trailer)
        fh.flush()
    except OSError as exc:
        with contextlib.suppress(OSError):  # leaves nothing to flush at exit
            fh.close()
        raise InvalidConfig(f"cannot write {name}: {exc}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    created = False
    try:
        args = parser.parse_args(argv)
        file_cfg = _load_config(args.config)
        resolved = {"input": args.input}
        # flag, else config key (JSON null is unset; unread keys are ignored), else default
        for opt in (opt for opt in OPTIONS if args.command in opt.commands):
            value = getattr(args, opt.name)
            if value is None:
                value = file_cfg.get(opt.name)
            resolved[opt.name] = opt.default if value is None else opt.kind(opt, value)
        if resolved.get("format") == "csv" and resolved["digits"] < 0:  # JSON ignores --digits
            given = file_cfg["digits"] if args.digits is None else args.digits
            raise InvalidConfig(f"digits must be >= 0, got {given!r}")
        out, created = _open_out(resolved["out"])
        with out or contextlib.nullcontext():
            _write(args.handler(resolved), resolved, out)
        created = False  # written: the file stays
        return EXIT_OK
    except _InputError as exc:
        code, error = EXIT_INPUT, f"input error: {exc}"
    except SgpvError as exc:
        code, error = EXIT_CONFIG, f"configuration error: {exc}"
    except MemoryError as exc:
        code, error = EXIT_CONFIG, f"configuration error: the request does not fit in memory: {exc}"
    except KeyboardInterrupt:
        code, error = EXIT_INTERRUPT, "interrupted"
    finally:
        if created:  # a failed run, whatever ended it, leaves --out as it found it
            os.remove(resolved["out"])
    if sys.stderr is not None:  # print(file=None) would write the line to stdout
        try:
            print(f"sgpv: {error}", file=sys.stderr)
        except OSError:  # stderr takes no writes: drop the line, and the stream, whose
            sys.stderr = None  # failed flush at exit would turn the exit code into 120
    return code


def run() -> None:
    """The command-line entry: main() with no cyclic collection, its objects frozen for exit."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
