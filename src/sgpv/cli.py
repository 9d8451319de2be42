"""Batch command line front end.

Subcommands: compute, design, reliability, screen, track, simulate.
Exit codes: 0 on success, 2 for input (data) errors, 3 for configuration
errors. Every option is declared once, in OPTIONS: a flag wins over the
same key in a JSON config file (--config), which wins over the default.
Floats in CSV output are rounded to --digits significant digits; JSON
output keeps full precision.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _table
from .core import NullSpec, _verdicts
from .design import POWER_CURVE_COLUMNS, DesignConfig, outcome_probs, outcome_probs_array
from .errors import SgpvError
from .intervals import ExtendedInterval, z_interval
from .reliability import (
    RELIABILITY_CURVE_COLUMNS,
    PriorOdds,
    fcr_sgpv,
    fdr_sgpv,
    reliability_rates_array,
)
from .screening import (
    FOLD_CHANGE_NULL,
    GroupSummary,
    StudyRow,
    attach_adjustments,
    batch_sgpv,
    cross_tab,
    log10_interval,
    pointwise_track,
    ranked_indices,
    two_sample_ci,
    two_sample_ci_array,
)
from .simulate import SimConfig, simulate_outcomes, simulate_reliability

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3

COMPUTE_COLUMNS = ("id", "lo", "hi", "p_delta", "classification",
                   "correction_applied", "delta_gap", "flags")
SCREEN_COLUMNS = ("id", "p_delta", "classification", "delta_gap", "p_raw",
                  "p_bonferroni", "q_bh", "rank", "flags")
CROSSTAB_COLUMNS = ("crosstab", "p_delta_zero", "p_delta_positive")
TRACK_COLUMNS = ("t", "p_delta", "classification", "grey_level")


class _ConfigError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _ConfigError(message)


# ----------------------------------------------------------------- helpers


@contextlib.contextmanager
def _config_errors():
    """Report library validation errors, and requests too big for memory, as configuration errors."""
    try:
        yield
    except SgpvError as exc:
        raise _ConfigError(str(exc)) from exc
    except MemoryError as exc:
        raise _ConfigError(f"the request does not fit in memory: {exc}") from exc


def _resolve_null(resolved: dict, allow_fold_change_default: bool) -> NullSpec:
    point, delta, lo, hi = (resolved[k] for k in ("null_point", "delta", "null_lo", "null_hi"))
    point_form = point is not None or delta is not None
    range_form = lo is not None or hi is not None
    if point_form and range_form:
        raise _ConfigError("give either --null-point/--delta or --null-lo/--null-hi, not both")
    with _config_errors():
        if point_form:
            if point is None or delta is None:
                raise _ConfigError("--null-point and --delta must be given together")
            return NullSpec.symmetric(point, delta)
        if range_form:
            if lo is None or hi is None:
                raise _ConfigError("--null-lo and --null-hi must be given together")
            return NullSpec.from_interval(lo, hi)
    if allow_fold_change_default:
        return FOLD_CHANGE_NULL
    raise _ConfigError("an interval null is required: --null-point/--delta or --null-lo/--null-hi")


def _resolve_design(resolved: dict) -> DesignConfig:
    values = []
    for name in ("theta0", "delta", "n", "variance"):
        if resolved[name] is None:
            raise _ConfigError(f"--{name} is required")
        values.append(resolved[name])
    with _config_errors():
        return DesignConfig(*values, resolved["alpha"])


def _resolve_grid(resolved: dict) -> np.ndarray:
    grid, thetas = resolved["grid"], resolved["thetas"]
    if grid is not None and thetas is not None:
        raise _ConfigError("give either --grid or --thetas, not both")
    if grid is not None:
        parts = grid.split(":")
        if len(parts) != 3:
            raise _ConfigError(f"grid must look like LO:HI:COUNT, got {grid!r}")
        try:
            lo, hi = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise _ConfigError(f"malformed grid spec {grid!r}: {exc}") from exc
        if count < 1 or not math.isfinite(lo) or not math.isfinite(hi) or lo > hi:
            raise _ConfigError(f"malformed grid spec {grid!r}")
        try:
            return np.linspace(lo, hi, count)
        except (ValueError, IndexError) as exc:  # numpy's answers to counts beyond its index range
            raise _ConfigError(f"cannot build a grid of {count} points: {exc}") from exc
    if thetas is None:
        raise _ConfigError("a grid is required: --grid LO:HI:COUNT or --thetas a,b,c")
    values = thetas  # a config file's JSON array, already numbers
    if isinstance(thetas, str):
        try:
            values = [float(t) for t in thetas.split(",") if t.strip() != ""]
        except ValueError as exc:
            raise _ConfigError(f"malformed theta list {thetas!r}: {exc}") from exc
    if not values:
        raise _ConfigError("theta list is empty")
    if any(map(math.isnan, values)):
        raise _ConfigError(f"theta list {thetas!r} holds a NaN")
    return np.array(values)


def _read_table(path: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header plus (line_number, fields) rows; blank lines are skipped."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise _InputError(f"line {reader.line_num}: {exc}") from exc
    numbered = [
        (lineno, [f.strip() for f in fields])
        for lineno, fields in enumerate(rows, start=1)
        if any(f.strip() for f in fields)
    ]
    if not numbered:
        raise _InputError(f"{path}: empty input (a header row is required)")
    header = [h.strip().lower() for h in numbered[0][1]]
    return header, numbered[1:]


def _row_id(fields: list[str], idx: int, lineno: int) -> str:
    if idx >= len(fields):
        raise _InputError(f"line {lineno}: missing value for 'id'")
    return fields[idx]


def _row_float(fields: list[str], idx: int, name: str, lineno: int) -> float:
    try:
        return float(fields[idx])
    except (IndexError, ValueError) as exc:
        raise _InputError(f"line {lineno}: bad value for {name!r}") from exc


def _row_count(fields: list[str], idx: int, name: str, lineno: int) -> int:
    value = _row_float(fields, idx, name, lineno)
    if not value.is_integer():
        raise _InputError(f"line {lineno}: {name!r} must be a whole number, got {fields[idx]!r}")
    return int(value)


@contextlib.contextmanager
def _output(out: str | None):
    """stdout, or the --out file opened for writing."""
    if out is None or out == "-":
        yield sys.stdout
        return
    try:
        fh = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise _ConfigError(f"cannot write {out}: {exc}") from exc
    with fh:
        yield fh


def _emit(resolved: dict, columns: Sequence[str], rows, **extra) -> bool:
    """Write one table to --out in the resolved --format; True if it went out as CSV.

    ``extra`` entries follow the rows in JSON output; CSV holds the rows only.
    """
    if resolved["format"] == "json":
        text = _table.json_text(columns, rows, **extra)
        with _output(resolved["out"]) as fh:
            fh.write(text)
        return False
    digits = resolved["digits"]
    if digits < 0:
        raise _ConfigError(f"--digits must be >= 0, got {digits}")
    with _output(resolved["out"]) as fh:
        _table.write_csv(fh, columns, rows, digits)
    return True


# ---------------------------------------------------------------- compute


def _parse_compute_rows(
    header: list[str], rows, level: float, log10_mode: bool
) -> list[tuple[str, ExtendedInterval]]:
    cols = {name: i for i, name in enumerate(header)}
    if "lo" in cols and "hi" in cols:
        names, make_interval = ("lo", "hi"), ExtendedInterval
    elif "estimate" in cols and "se" in cols:
        names, make_interval = ("estimate", "se"), functools.partial(z_interval, level=level)
    else:
        raise _InputError("input needs either lo,hi or estimate,se columns (id optional)")
    (a_name, b_name), id_col = names, cols.get("id")
    a_col, b_col = cols[a_name], cols[b_name]
    out = []
    for lineno, fields in rows:
        row_id = str(len(out) + 1) if id_col is None else _row_id(fields, id_col, lineno)
        a = _row_float(fields, a_col, a_name, lineno)
        b = _row_float(fields, b_col, b_name, lineno)
        try:
            interval = make_interval(a, b)
            if log10_mode:
                interval = log10_interval(interval)
        except SgpvError as exc:
            raise _InputError(f"line {lineno}: {exc}") from exc
        out.append((row_id, interval))
    return out


def _cmd_compute(resolved: dict) -> None:
    log10_mode = resolved["log10"]
    null_spec = _resolve_null(resolved, allow_fold_change_default=log10_mode)

    header, raw_rows = _read_table(resolved["input"])
    parsed = _parse_compute_rows(header, raw_rows, resolved["level"], log10_mode)
    verdicts = _verdicts([iv.lo for _, iv in parsed], [iv.hi for _, iv in parsed], null_spec)
    rows = (
        (row_id, iv.lo, iv.hi, *verdict, "" if verdict[0] is not None else "unbounded_estimate")
        for (row_id, iv), verdict in zip(parsed, verdicts)
    )
    _emit(resolved, COMPUTE_COLUMNS, rows)


# ----------------------------------------------------- design, reliability


def _cmd_design(resolved: dict) -> None:
    cfg = _resolve_design(resolved)
    with _config_errors():
        grid = _resolve_grid(resolved)
        values = outcome_probs_array(grid, cfg)
        rows = zip(grid.tolist(), *(column.tolist() for column in values))
    _emit(resolved, POWER_CURVE_COLUMNS, rows)


def _cmd_reliability(resolved: dict) -> None:
    cfg = _resolve_design(resolved)
    if resolved["r"] is None:
        raise _ConfigError("--r (prior odds) is required")
    with _config_errors():
        odds = PriorOdds(resolved["r"])
        grid = _resolve_grid(resolved)
        values = reliability_rates_array(grid, cfg, odds)
        rows = zip(grid.tolist(), *(column.tolist() for column in values))
    _emit(resolved, RELIABILITY_CURVE_COLUMNS, rows)


# ------------------------------------------------------------------ screen


def _parse_screen_rows(header, rows, level, welch, log10_mode) -> tuple[list[StudyRow], bool]:
    """Study rows, and whether the input form gives every row a raw p-value."""
    cols = {name: i for i, name in enumerate(header)}
    interval_form = {"id", "lo", "hi"} <= set(cols)
    group_form = {"id", "n1", "mean1", "sd1", "n2", "mean2", "sd2"} <= set(cols)
    if not interval_form and not group_form:
        raise _InputError(
            "input needs id,estimate,lo,hi[,p_value] or id,n1,mean1,sd1,n2,mean2,sd2 columns"
        )
    if group_form and log10_mode:
        raise _ConfigError(
            "--log10 applies to interval inputs; two-group summaries are "
            "analyzed on the scale they are given"
        )
    if not interval_form:
        return _parse_group_rows(cols, rows, level, welch), True
    study_rows = _parse_interval_rows(cols, rows, log10_mode)
    return study_rows, "p_value" in cols and all(r.p_value is not None for r in study_rows)


def _parse_interval_rows(cols, rows, log10_mode) -> list[StudyRow]:
    out = []
    for lineno, fields in rows:
        row_id = _row_id(fields, cols["id"], lineno)
        lo = _row_float(fields, cols["lo"], "lo", lineno)
        hi = _row_float(fields, cols["hi"], "hi", lineno)
        estimate = (
            _row_float(fields, cols["estimate"], "estimate", lineno)
            if "estimate" in cols
            else 0.5 * (lo + hi)
        )
        p_value = None
        if "p_value" in cols and cols["p_value"] < len(fields) and fields[cols["p_value"]] != "":
            p_value = _row_float(fields, cols["p_value"], "p_value", lineno)
        try:
            interval = ExtendedInterval(lo, hi)
            if log10_mode:
                interval = log10_interval(interval)
                estimate = math.log10(estimate) if estimate > 0 else estimate
        except SgpvError as exc:
            raise _InputError(f"line {lineno}: {exc}") from exc
        _check_p_value(p_value, lineno)
        out.append(StudyRow(row_id, estimate, interval, p_value))
    return out


def _group_cells(fields, group, lineno: int) -> tuple[int, float, float]:
    """(n, mean, sd) of one group on one line; ``group`` holds (column, name) pairs."""
    (n_col, n), (mean_col, mean), (sd_col, sd) = group
    return (
        _row_count(fields, n_col, n, lineno),
        _row_float(fields, mean_col, mean, lineno),
        _row_float(fields, sd_col, sd, lineno),
    )


def _parse_group_rows(cols, rows, level, welch) -> list[StudyRow]:
    """One array t-test over every line up to the first unreadable one.

    Lines are checked in order, so the earliest failing line is reported
    whether its cells or its summaries are at fault; within a line the
    first group's summary is checked before the second group is read.
    """
    first_group, second_group = (
        [(cols[name + g], name + g) for name in ("n", "mean", "sd")] for g in "12"
    )
    parsed, unreadable = [], None
    for lineno, fields in rows:
        try:
            row_id = _row_id(fields, cols["id"], lineno)
            first = _group_cells(fields, first_group, lineno)
            try:
                second = _group_cells(fields, second_group, lineno)
            except _InputError:
                GroupSummary(*first)  # its summary is checked before the second group is read
                raise
        except _InputError as exc:
            unreadable = exc
            break
        except SgpvError as exc:
            unreadable = _InputError(f"line {lineno}: {exc}")
            break
        parsed.append((lineno, row_id, *first, *second))
    _, _, *columns = zip(*parsed) if parsed else ((),) * 8
    estimate, lo, hi, p_value, invalid = two_sample_ci_array(*columns, level, welch)
    out = []
    try:
        for (lineno, row_id, *groups), est, lo_k, hi_k, p_k, bad in zip(
            parsed, estimate.tolist(), lo.tolist(), hi.tolist(), p_value.tolist(),
            invalid.tolist(),
        ):
            if bad:  # the scalar test raises this row's own message
                two_sample_ci(GroupSummary(*groups[:3]), GroupSummary(*groups[3:]), level, welch)
            interval = ExtendedInterval(lo_k, hi_k)
            _check_p_value(p_k, lineno)
            out.append(StudyRow(row_id, est, interval, p_k))
    except SgpvError as exc:
        raise _InputError(f"line {lineno}: {exc}") from exc
    if unreadable is not None:
        raise unreadable
    return out


def _check_p_value(p_value: float | None, lineno: int) -> None:
    if p_value is not None and not 0.0 < p_value <= 1.0:
        raise _InputError(f"line {lineno}: p-value must lie in (0, 1], got {p_value!r}")


def _cmd_screen(resolved: dict) -> None:
    log10_mode, alpha, want_crosstab = resolved["log10"], resolved["alpha"], resolved["crosstab"]
    null_spec = _resolve_null(resolved, allow_fold_change_default=log10_mode)

    header, raw_rows = _read_table(resolved["input"])
    study_rows, have_pvalues = _parse_screen_rows(
        header, raw_rows, resolved["level"], resolved["welch"], log10_mode
    )

    report = batch_sgpv(study_rows, null_spec)
    if have_pvalues:
        report = attach_adjustments(report, alpha)
    if want_crosstab and not have_pvalues:
        raise _ConfigError("--crosstab needs a p_value column (or two-group input)")

    ranks: list[int | None] = [None] * len(report.rows)
    for pos, idx in enumerate(ranked_indices(report), start=1):
        ranks[idx] = pos
    rows = [
        (r.id, r.p_delta, r.classification, r.delta_gap, r.p_raw, r.p_bonferroni,
         r.q_bh, rank, r.flags)
        for r, rank in zip(report.rows, ranks)
    ]
    extra = {"summary": asdict(report.summary)}
    tab = cross_tab(report, alpha) if want_crosstab else None
    if tab is not None:
        extra["crosstab"] = asdict(tab)
    if _emit(resolved, SCREEN_COLUMNS, rows, **extra) and tab is not None:
        block = _table.csv_text(CROSSTAB_COLUMNS, [
            ("bonferroni_significant", tab.sgpv_zero_significant,
             tab.sgpv_positive_significant),
            ("bonferroni_not_significant", tab.sgpv_zero_not_significant,
             tab.sgpv_positive_not_significant),
        ])
        sys.stdout.write("\n" + block if resolved["out"] in (None, "-") else block)


# ------------------------------------------------------------------- track


def _cmd_track(resolved: dict) -> None:
    null_spec = _resolve_null(resolved, allow_fold_change_default=False)

    header, raw_rows = _read_table(resolved["input"])
    cols = {name: i for i, name in enumerate(header)}
    if not {"t", "lo", "hi"} <= set(cols):
        raise _InputError("input needs t,lo,hi columns")
    series = []
    for lineno, fields in raw_rows:
        t = _row_float(fields, cols["t"], "t", lineno)
        lo = _row_float(fields, cols["lo"], "lo", lineno)
        hi = _row_float(fields, cols["hi"], "hi", lineno)
        try:
            series.append((t, ExtendedInterval(lo, hi)))
        except SgpvError as exc:
            raise _InputError(f"line {lineno}: {exc}") from exc
    try:
        points = pointwise_track(series, null_spec)
    except SgpvError as exc:
        raise _InputError(str(exc)) from exc
    _emit(resolved, TRACK_COLUMNS, _table.table_rows(points, TRACK_COLUMNS))


# ---------------------------------------------------------------- simulate


def _cmd_simulate(resolved: dict) -> None:
    design = _resolve_design(resolved)
    theta = design.theta0 if resolved["theta"] is None else resolved["theta"]
    if resolved["replicates"] is None:
        raise _ConfigError("--replicates is required")
    seed, chunks, theta1, r = (resolved[name] for name in ("seed", "chunks", "theta1", "r"))
    if (theta1 is None) != (r is None):
        raise _ConfigError("--theta1 and --r must be given together")

    with _config_errors():
        sim_cfg = SimConfig(design, theta, resolved["replicates"], seed)
        result = simulate_outcomes(sim_cfg, chunks=chunks)
        empirical = asdict(result.empirical)
        closed = asdict(outcome_probs(theta, design))
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
            payload["reliability"] = {
                "empirical_fdr": rel.empirical_fdr,
                "empirical_fcr": rel.empirical_fcr,
                "closed_form_fdr": fdr_sgpv(theta1, design, odds),
                "closed_form_fcr": fcr_sgpv(theta1, design, odds),
                "n_discoveries": rel.n_discoveries,
                "n_confirmations": rel.n_confirmations,
            }
    with _output(resolved["out"]) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


# ------------------------------------------------------ options and parser


def _number(opt: Option, value) -> float:
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            return float(value)
    raise _ConfigError(f"{opt.name} must be a number, got {value!r}")


def _integer(opt: Option, value) -> int:
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return int(value)
    raise _ConfigError(f"{opt.name} must be an integer, got {value!r}")


def _unit(opt: Option, value) -> float:
    """A level or rate, which must lie in (0, 1)."""
    value = _number(opt, value)
    if not 0.0 < value < 1.0:
        raise _ConfigError(f"--{opt.name} must be in (0, 1), got {value}")
    return value


def _boolean(opt: Option, value) -> bool:
    if isinstance(value, bool):
        return value
    raise _ConfigError(f"{opt.name} must be true or false, got {value!r}")


def _choice(opt: Option, value) -> str:
    if value in opt.choices:
        return value
    raise _ConfigError(f"{opt.name} must be one of {', '.join(opt.choices)}, got {value!r}")


def _text(opt: Option, value) -> str:
    if isinstance(value, str):
        return value
    raise _ConfigError(f"{opt.name} must be a string, got {value!r}")


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
# argparse type of the flags of each kind; a boolean flag also takes a --no- form
_FLAG_TYPES = {_number: float, _unit: float, _integer: int}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _ConfigError(f"config file {path} must hold a JSON object")
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
                           type=_FLAG_TYPES.get(opt.kind), choices=opt.choices or None,
                           action=argparse.BooleanOptionalAction if opt.kind is _boolean else None)
        p.add_argument("--config", help="JSON file with default option values")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
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
        args.handler(resolved)
        return EXIT_OK
    except _ConfigError as exc:
        print(f"sgpv: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _InputError as exc:
        print(f"sgpv: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
