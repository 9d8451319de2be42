"""Batch command line front end.

Subcommands: compute, design, reliability, screen, track, simulate.
Exit codes: 0 on success, 2 for input (data) errors, 3 for configuration
errors. A JSON config file (--config) supplies defaults; explicit flags
win. Floats in CSV output use 6 significant digits unless --digits says
otherwise; JSON output keeps full precision.
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
from typing import Sequence

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


def _resolve(args: argparse.Namespace, file_cfg: dict, name: str, default=None):
    """The flag if given, else the config file value, else default (null is unset)."""
    value = getattr(args, name, None)
    if value is None:
        value = file_cfg.get(name)
    return default if value is None else value


def _resolve_int(args: argparse.Namespace, file_cfg: dict, name: str, default=None):
    """_resolve for an integer option; a config file value may be any JSON."""
    value = _resolve(args, file_cfg, name, default)
    if value is None or type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise _ConfigError(f"{name} must be an integer, got {value!r}")


def _resolve_float(args: argparse.Namespace, file_cfg: dict, name: str, default=None):
    """_resolve for a real-valued option; a config file value may be any JSON."""
    value = _resolve(args, file_cfg, name, default)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise _ConfigError(f"{name} must be a number, got {value!r}") from None


def _resolve_unit(args, file_cfg, name: str, default: float) -> float:
    """_resolve_float for a level or rate that must lie in (0, 1)."""
    value = _resolve_float(args, file_cfg, name, default)
    if not 0.0 < value < 1.0:
        raise _ConfigError(f"--{name} must be in (0, 1), got {value}")
    return value


def _resolve_null(args, file_cfg, allow_fold_change_default: bool) -> NullSpec:
    point, delta, lo, hi = (
        _resolve_float(args, file_cfg, name)
        for name in ("null_point", "delta", "null_lo", "null_hi")
    )
    point_form = point is not None or delta is not None
    range_form = lo is not None or hi is not None
    if point_form and range_form:
        raise _ConfigError(
            "give either --null-point/--delta or --null-lo/--null-hi, not both"
        )
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
    raise _ConfigError(
        "an interval null is required: --null-point/--delta or --null-lo/--null-hi"
    )


def _resolve_design(args, file_cfg) -> DesignConfig:
    values = []
    for name in ("theta0", "delta", "n", "variance"):
        value = _resolve_float(args, file_cfg, name)
        if value is None:
            raise _ConfigError(f"--{name} is required")
        values.append(value)
    alpha = _resolve_float(args, file_cfg, "alpha", 0.05)
    with _config_errors():
        return DesignConfig(*values, alpha)


def _resolve_grid(args, file_cfg) -> np.ndarray:
    grid = _resolve(args, file_cfg, "grid")
    thetas = _resolve(args, file_cfg, "thetas")
    if grid is not None and thetas is not None:
        raise _ConfigError("give either --grid or --thetas, not both")
    if grid is not None:
        parts = str(grid).split(":")
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
    try:
        values = [float(t) for t in str(thetas).split(",") if t.strip() != ""]
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


def _emit(args, file_cfg: dict, columns: Sequence[str], rows, **extra) -> bool:
    """Write one table to --out in the resolved --format; True if it went out as CSV.

    ``extra`` entries follow the rows in JSON output; CSV holds the rows only.
    """
    digits = _resolve_int(args, file_cfg, "digits", 6)
    if _resolve(args, file_cfg, "format", "csv") == "json":
        text = _table.json_text(columns, rows, **extra)
        with _output(args.out) as fh:
            fh.write(text)
        return False
    if digits < 0:
        raise _ConfigError(f"--digits must be >= 0, got {digits}")
    with _output(args.out) as fh:
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
        raise _InputError(
            "input needs either lo,hi or estimate,se columns (id optional)"
        )
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


def _cmd_compute(args) -> int:
    file_cfg = _load_config(args.config)
    log10_mode = bool(_resolve(args, file_cfg, "log10", False))
    null_spec = _resolve_null(args, file_cfg, allow_fold_change_default=log10_mode)
    level = _resolve_unit(args, file_cfg, "level", 0.95)

    header, raw_rows = _read_table(args.input)
    parsed = _parse_compute_rows(header, raw_rows, level, log10_mode)
    verdicts = _verdicts([iv.lo for _, iv in parsed], [iv.hi for _, iv in parsed], null_spec)
    rows = (
        (row_id, iv.lo, iv.hi, *verdict, "" if verdict[0] is not None else "unbounded_estimate")
        for (row_id, iv), verdict in zip(parsed, verdicts)
    )
    _emit(args, file_cfg, COMPUTE_COLUMNS, rows)
    return EXIT_OK


# ----------------------------------------------------- design, reliability


def _cmd_design(args) -> int:
    file_cfg = _load_config(args.config)
    cfg = _resolve_design(args, file_cfg)
    with _config_errors():
        grid = _resolve_grid(args, file_cfg)
        values = outcome_probs_array(grid, cfg)
        rows = zip(grid.tolist(), *(column.tolist() for column in values))
    _emit(args, file_cfg, POWER_CURVE_COLUMNS, rows)
    return EXIT_OK


def _cmd_reliability(args) -> int:
    file_cfg = _load_config(args.config)
    cfg = _resolve_design(args, file_cfg)
    r = _resolve_float(args, file_cfg, "r")
    if r is None:
        raise _ConfigError("--r (prior odds) is required")
    with _config_errors():
        odds = PriorOdds(r)
        grid = _resolve_grid(args, file_cfg)
        values = reliability_rates_array(grid, cfg, odds)
        rows = zip(grid.tolist(), *(column.tolist() for column in values))
    _emit(args, file_cfg, RELIABILITY_CURVE_COLUMNS, rows)
    return EXIT_OK


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


def _cmd_screen(args) -> int:
    file_cfg = _load_config(args.config)
    log10_mode = bool(_resolve(args, file_cfg, "log10", False))
    null_spec = _resolve_null(args, file_cfg, allow_fold_change_default=log10_mode)
    alpha = _resolve_unit(args, file_cfg, "alpha", 0.05)
    level = _resolve_unit(args, file_cfg, "level", 0.95)
    welch = bool(_resolve(args, file_cfg, "welch", False))
    want_crosstab = bool(_resolve(args, file_cfg, "crosstab", False))

    header, raw_rows = _read_table(args.input)
    study_rows, have_pvalues = _parse_screen_rows(header, raw_rows, level, welch, log10_mode)

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
    if _emit(args, file_cfg, SCREEN_COLUMNS, rows, **extra) and tab is not None:
        block = _table.csv_text(CROSSTAB_COLUMNS, [
            ("bonferroni_significant", tab.sgpv_zero_significant,
             tab.sgpv_positive_significant),
            ("bonferroni_not_significant", tab.sgpv_zero_not_significant,
             tab.sgpv_positive_not_significant),
        ])
        sys.stdout.write("\n" + block if args.out in (None, "-") else block)
    return EXIT_OK


# ------------------------------------------------------------------- track


def _cmd_track(args) -> int:
    file_cfg = _load_config(args.config)
    null_spec = _resolve_null(args, file_cfg, allow_fold_change_default=False)

    header, raw_rows = _read_table(args.input)
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
    _emit(args, file_cfg, TRACK_COLUMNS, _table.table_rows(points, TRACK_COLUMNS))
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args) -> int:
    file_cfg = _load_config(args.config)
    design = _resolve_design(args, file_cfg)
    theta = _resolve_float(args, file_cfg, "theta", design.theta0)
    replicates = _resolve_int(args, file_cfg, "replicates")
    if replicates is None:
        raise _ConfigError("--replicates is required")
    seed = _resolve_int(args, file_cfg, "seed", 0)
    chunks = _resolve_int(args, file_cfg, "chunks", 1)
    theta1 = _resolve_float(args, file_cfg, "theta1")
    r = _resolve_float(args, file_cfg, "r")
    if (theta1 is None) != (r is None):
        raise _ConfigError("--theta1 and --r must be given together")

    with _config_errors():
        sim_cfg = SimConfig(design, theta, replicates, seed)
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
    with _output(args.out) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--config", help="JSON file with default option values")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--digits", type=int, help="significant digits in CSV output")


def _add_null_flags(parser: _Parser) -> None:
    parser.add_argument("--null-point", dest="null_point", type=float,
                        help="center of the interval null")
    parser.add_argument("--delta", type=float, help="half-width of the interval null")
    parser.add_argument("--null-lo", dest="null_lo", type=float,
                        help="lower edge of the interval null")
    parser.add_argument("--null-hi", dest="null_hi", type=float,
                        help="upper edge of the interval null")


def _add_design_flags(parser: _Parser) -> None:
    parser.add_argument("--theta0", type=float, help="point null")
    parser.add_argument("--delta", type=float, help="half-width of the interval null")
    parser.add_argument("--n", type=float, help="sample size")
    parser.add_argument("--variance", type=float,
                        help="variance V of sqrt(n)(theta_hat - theta); se = sqrt(V/n)")
    parser.add_argument("--alpha", type=float, help="interval-estimate miss rate")


def _add_grid_flags(parser: _Parser) -> None:
    parser.add_argument("--grid", help="evaluation grid LO:HI:COUNT")
    parser.add_argument("--thetas", help="explicit comma-separated grid")


def build_parser() -> _Parser:
    parser = _Parser(prog="sgpv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[], help="per-row second-generation p-values")
    p.add_argument("input", help="CSV with id,lo,hi or id,estimate,se columns ('-' for stdin)")
    _add_null_flags(p)
    p.add_argument("--level", type=float, help="confidence level for estimate,se rows")
    p.add_argument("--log10", action=argparse.BooleanOptionalAction,
                   help="map intervals onto the log10 scale at ingestion")
    _add_common(p)
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("design", help="outcome probability curves over true effects")
    _add_design_flags(p)
    _add_grid_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("reliability", help="false discovery / confirmation rate curves")
    _add_design_flags(p)
    p.add_argument("--r", type=float, help="prior odds P(H1)/P(H0)")
    _add_grid_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_reliability)

    p = sub.add_parser("screen", help="batch screening with multiplicity comparators")
    p.add_argument("input", help="CSV with id,estimate,lo,hi[,p_value] or two-group summaries")
    _add_null_flags(p)
    p.add_argument("--alpha", type=float, help="significance level for comparators")
    p.add_argument("--level", type=float, help="confidence level for two-group intervals")
    p.add_argument("--welch", action=argparse.BooleanOptionalAction,
                   help="Welch t instead of pooled variance")
    p.add_argument("--log10", action=argparse.BooleanOptionalAction,
                   help="map intervals onto the log10 scale at ingestion")
    p.add_argument("--crosstab", action=argparse.BooleanOptionalAction,
                   help="also emit the sgpv x Bonferroni cross-tabulation")
    _add_common(p)
    p.set_defaults(handler=_cmd_screen)

    p = sub.add_parser("track", help="pointwise classification of an interval series")
    p.add_argument("input", help="CSV with t,lo,hi columns")
    _add_null_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_track)

    p = sub.add_parser("simulate", help="Monte Carlo check of the closed forms (JSON)")
    _add_design_flags(p)
    p.add_argument("--theta", type=float, help="data-generating truth (default: theta0)")
    p.add_argument("--replicates", type=int, help="number of replicates")
    p.add_argument("--seed", type=int, help="PRNG seed (default: 0)")
    p.add_argument("--chunks", type=int, help="work partitions (result-invariant)")
    p.add_argument("--theta1", type=float, help="alternative for the reliability check")
    p.add_argument("--r", type=float, help="prior odds for the reliability check")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _ConfigError as exc:
        print(f"sgpv: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _InputError as exc:
        print(f"sgpv: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
