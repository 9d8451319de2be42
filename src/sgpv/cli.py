"""Batch command line front end.

Subcommands: compute, design, reliability, screen, track, simulate.
Exit codes: 0 on success, 2 for input (data) errors, 3 for configuration
errors. A JSON config file (--config) supplies defaults; explicit flags
win. Floats in CSV output use 6 significant digits unless --digits says
otherwise; JSON output keeps full precision.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from .core import NullSpec, SgpvResult, second_gen_p
from .design import DesignConfig, outcome_probs, emit_power_curve, power_curve_csv
from .errors import SgpvError, UnboundedEstimate
from .intervals import ExtendedInterval, z_interval
from .reliability import (
    PriorOdds,
    emit_reliability_curve,
    fcr_sgpv,
    fdr_sgpv,
    reliability_curve_csv,
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
)
from .simulate import SimConfig, simulate_outcomes, simulate_reliability

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3


class _ConfigError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _ConfigError(message)


# ----------------------------------------------------------------- helpers


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, file_cfg: dict, name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in file_cfg:
        return file_cfg[name]
    return default


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


def _resolve_null(args, file_cfg, allow_fold_change_default: bool) -> NullSpec:
    point = _resolve(args, file_cfg, "null_point")
    delta = _resolve(args, file_cfg, "delta")
    lo = _resolve(args, file_cfg, "null_lo")
    hi = _resolve(args, file_cfg, "null_hi")
    point_form = point is not None or delta is not None
    range_form = lo is not None or hi is not None
    if point_form and range_form:
        raise _ConfigError(
            "give either --null-point/--delta or --null-lo/--null-hi, not both"
        )
    try:
        if point_form:
            if point is None or delta is None:
                raise _ConfigError("--null-point and --delta must be given together")
            return NullSpec.symmetric(float(point), float(delta))
        if range_form:
            if lo is None or hi is None:
                raise _ConfigError("--null-lo and --null-hi must be given together")
            return NullSpec.from_interval(float(lo), float(hi))
    except SgpvError as exc:
        raise _ConfigError(str(exc)) from exc
    if allow_fold_change_default:
        return FOLD_CHANGE_NULL
    raise _ConfigError(
        "an interval null is required: --null-point/--delta or --null-lo/--null-hi"
    )


def _resolve_design(args, file_cfg) -> DesignConfig:
    values = {}
    for name in ("theta0", "delta", "n", "variance"):
        value = _resolve(args, file_cfg, name)
        if value is None:
            raise _ConfigError(f"--{name} is required")
        values[name] = float(value)
    alpha = float(_resolve(args, file_cfg, "alpha", 0.05))
    try:
        return DesignConfig(
            values["theta0"], values["delta"], values["n"], values["variance"], alpha
        )
    except SgpvError as exc:
        raise _ConfigError(str(exc)) from exc


def _resolve_grid(args, file_cfg) -> list[float]:
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
        return [float(t) for t in np.linspace(lo, hi, count)]
    if thetas is not None:
        try:
            values = [float(t) for t in str(thetas).split(",") if t.strip() != ""]
        except ValueError as exc:
            raise _ConfigError(f"malformed theta list {thetas!r}: {exc}") from exc
        if not values:
            raise _ConfigError("theta list is empty")
        return values
    raise _ConfigError("a grid is required: --grid LO:HI:COUNT or --thetas a,b,c")


def _read_table(path: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header plus (line_number, fields) rows; blank lines are skipped."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    rows = list(csv.reader(io.StringIO(text)))
    numbered = [
        (lineno, [f.strip() for f in fields])
        for lineno, fields in enumerate(rows, start=1)
        if any(f.strip() for f in fields)
    ]
    if not numbered:
        raise _InputError(f"{path}: empty input (a header row is required)")
    header = [h.strip().lower() for h in numbered[0][1]]
    return header, numbered[1:]


def _row_float(fields: list[str], idx: int, name: str, lineno: int) -> float:
    try:
        return float(fields[idx])
    except (IndexError, ValueError) as exc:
        raise _InputError(f"line {lineno}: bad value for {name!r}") from exc


def _fmt(value, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, f".{digits}g")
    return str(value)


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list], digits: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v, digits) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------- compute


def _parse_compute_rows(
    header: list[str], rows, level: float, log10_mode: bool
) -> list[tuple[str, ExtendedInterval]]:
    cols = {name: i for i, name in enumerate(header)}
    out = []
    if "lo" in cols and "hi" in cols:
        for lineno, fields in rows:
            row_id = fields[cols["id"]] if "id" in cols else str(len(out) + 1)
            lo = _row_float(fields, cols["lo"], "lo", lineno)
            hi = _row_float(fields, cols["hi"], "hi", lineno)
            try:
                interval = ExtendedInterval(lo, hi)
                if log10_mode:
                    interval = log10_interval(interval)
            except SgpvError as exc:
                raise _InputError(f"line {lineno}: {exc}") from exc
            out.append((row_id, interval))
    elif "estimate" in cols and "se" in cols:
        for lineno, fields in rows:
            row_id = fields[cols["id"]] if "id" in cols else str(len(out) + 1)
            estimate = _row_float(fields, cols["estimate"], "estimate", lineno)
            se = _row_float(fields, cols["se"], "se", lineno)
            try:
                interval = z_interval(estimate, se, level)
                if log10_mode:
                    interval = log10_interval(interval)
            except SgpvError as exc:
                raise _InputError(f"line {lineno}: {exc}") from exc
            out.append((row_id, interval))
    else:
        raise _InputError(
            "input needs either lo,hi or estimate,se columns (id optional)"
        )
    return out


def _cmd_compute(args) -> int:
    file_cfg = _load_config(args.config)
    log10_mode = bool(_resolve(args, file_cfg, "log10", False))
    null_spec = _resolve_null(args, file_cfg, allow_fold_change_default=log10_mode)
    level = float(_resolve(args, file_cfg, "level", 0.95))
    if not 0.0 < level < 1.0:
        raise _ConfigError(f"--level must be in (0, 1), got {level}")
    digits = _resolve_int(args, file_cfg, "digits", 6)
    out_format = _resolve(args, file_cfg, "format", "csv")

    header, raw_rows = _read_table(args.input)
    parsed = _parse_compute_rows(header, raw_rows, level, log10_mode)

    results: list[tuple[str, ExtendedInterval, SgpvResult | None]] = []
    for row_id, interval in parsed:
        try:
            results.append((row_id, interval, second_gen_p(interval, null_spec)))
        except UnboundedEstimate:
            results.append((row_id, interval, None))

    columns = [
        "id", "lo", "hi", "p_delta", "classification",
        "correction_applied", "delta_gap", "flags",
    ]
    if out_format == "json":
        payload = []
        for row_id, interval, res in results:
            payload.append(
                {
                    "id": row_id,
                    "lo": interval.lo,
                    "hi": interval.hi,
                    "p_delta": None if res is None else res.p_delta,
                    "classification": None if res is None else res.classification.value,
                    "correction_applied": None if res is None else res.correction_applied,
                    "delta_gap": None if res is None else res.delta_gap,
                    "flags": "unbounded_estimate" if res is None else "",
                }
            )
        _write_text(json.dumps({"rows": payload}, indent=2) + "\n", args.out)
    else:
        rows_out = []
        for row_id, interval, res in results:
            if res is None:
                rows_out.append([row_id, interval.lo, interval.hi, None, None, None, None,
                                 "unbounded_estimate"])
            else:
                rows_out.append(
                    [
                        row_id, interval.lo, interval.hi, res.p_delta,
                        res.classification.value, res.correction_applied,
                        res.delta_gap, "",
                    ]
                )
        _write_text(_csv_text(columns, rows_out, digits), args.out)
    return EXIT_OK


# ----------------------------------------------------------------- design


def _cmd_design(args) -> int:
    file_cfg = _load_config(args.config)
    cfg = _resolve_design(args, file_cfg)
    grid = _resolve_grid(args, file_cfg)
    digits = _resolve_int(args, file_cfg, "digits", 6)
    out_format = _resolve(args, file_cfg, "format", "csv")
    rows = emit_power_curve(cfg, grid)
    if out_format == "json":
        payload = [
            {"theta": r.theta, "p_alt": r.p_alt, "p_null": r.p_null,
             "p_inconclusive": r.p_inconclusive}
            for r in rows
        ]
        _write_text(json.dumps({"rows": payload}, indent=2) + "\n", args.out)
    else:
        _write_text(power_curve_csv(rows, digits), args.out)
    return EXIT_OK


# ------------------------------------------------------------ reliability


def _cmd_reliability(args) -> int:
    file_cfg = _load_config(args.config)
    cfg = _resolve_design(args, file_cfg)
    r = _resolve(args, file_cfg, "r")
    if r is None:
        raise _ConfigError("--r (prior odds) is required")
    try:
        odds = PriorOdds(float(r))
    except SgpvError as exc:
        raise _ConfigError(str(exc)) from exc
    grid = _resolve_grid(args, file_cfg)
    digits = _resolve_int(args, file_cfg, "digits", 6)
    out_format = _resolve(args, file_cfg, "format", "csv")
    rows = emit_reliability_curve(cfg, odds, grid)
    if out_format == "json":
        payload = [
            {"theta1": p.theta1, "fdr_sgpv": p.fdr_sgpv, "fcr_sgpv": p.fcr_sgpv,
             "fdr_test": p.fdr_test, "fnr_test": p.fnr_test}
            for p in rows
        ]
        _write_text(json.dumps({"rows": payload}, indent=2) + "\n", args.out)
    else:
        _write_text(reliability_curve_csv(rows, digits), args.out)
    return EXIT_OK


# ------------------------------------------------------------------ screen


def _parse_screen_rows(header, rows, level, welch, log10_mode) -> list[StudyRow]:
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
    out = []
    for lineno, fields in rows:
        row_id = fields[cols["id"]]
        try:
            if interval_form:
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
                interval = ExtendedInterval(lo, hi)
                if log10_mode:
                    interval = log10_interval(interval)
                    estimate = math.log10(estimate) if estimate > 0 else estimate
                out.append(StudyRow(row_id, estimate, interval, p_value))
            else:
                a = GroupSummary(
                    int(_row_float(fields, cols["n1"], "n1", lineno)),
                    _row_float(fields, cols["mean1"], "mean1", lineno),
                    _row_float(fields, cols["sd1"], "sd1", lineno),
                )
                b = GroupSummary(
                    int(_row_float(fields, cols["n2"], "n2", lineno)),
                    _row_float(fields, cols["mean2"], "mean2", lineno),
                    _row_float(fields, cols["sd2"], "sd2", lineno),
                )
                estimate, interval, p_value = two_sample_ci(a, b, level, welch)
                out.append(StudyRow(row_id, estimate, interval, p_value))
        except SgpvError as exc:
            raise _InputError(f"line {lineno}: {exc}") from exc
    return out


def _cmd_screen(args) -> int:
    file_cfg = _load_config(args.config)
    log10_mode = bool(_resolve(args, file_cfg, "log10", False))
    null_spec = _resolve_null(args, file_cfg, allow_fold_change_default=log10_mode)
    alpha = float(_resolve(args, file_cfg, "alpha", 0.05))
    if not 0.0 < alpha < 1.0:
        raise _ConfigError(f"--alpha must be in (0, 1), got {alpha}")
    level = float(_resolve(args, file_cfg, "level", 0.95))
    if not 0.0 < level < 1.0:
        raise _ConfigError(f"--level must be in (0, 1), got {level}")
    welch = bool(_resolve(args, file_cfg, "welch", False))
    want_crosstab = bool(_resolve(args, file_cfg, "crosstab", False))
    digits = _resolve_int(args, file_cfg, "digits", 6)
    out_format = _resolve(args, file_cfg, "format", "csv")

    header, raw_rows = _read_table(args.input)
    study_rows = _parse_screen_rows(header, raw_rows, level, welch, log10_mode)

    report = batch_sgpv(study_rows, null_spec)
    have_pvalues = bool(report.rows) and all(r.p_raw is not None for r in report.rows)
    if have_pvalues:
        report = attach_adjustments(report, alpha)
    if want_crosstab and not have_pvalues:
        raise _ConfigError("--crosstab needs a p_value column (or two-group input)")

    ranks: dict[int, int] = {
        idx: pos + 1 for pos, idx in enumerate(ranked_indices(report))
    }
    tab = cross_tab(report, alpha) if want_crosstab else None

    if out_format == "json":
        payload = {
            "rows": [
                {
                    "id": row.id,
                    "p_delta": row.p_delta,
                    "classification": None if row.classification is None else row.classification.value,
                    "delta_gap": row.delta_gap,
                    "p_raw": row.p_raw,
                    "p_bonferroni": row.p_bonferroni,
                    "q_bh": row.q_bh,
                    "rank": ranks.get(i),
                    "flags": row.flags,
                }
                for i, row in enumerate(report.rows)
            ],
            "summary": report.summary.__dict__,
        }
        if tab is not None:
            payload["crosstab"] = {
                "sgpv_zero_significant": tab.sgpv_zero_significant,
                "sgpv_positive_significant": tab.sgpv_positive_significant,
                "sgpv_zero_not_significant": tab.sgpv_zero_not_significant,
                "sgpv_positive_not_significant": tab.sgpv_positive_not_significant,
            }
        _write_text(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK

    columns = ["id", "p_delta", "classification", "delta_gap", "p_raw",
               "p_bonferroni", "q_bh", "rank", "flags"]
    rows_out = []
    for i, row in enumerate(report.rows):
        rows_out.append(
            [
                row.id,
                row.p_delta,
                None if row.classification is None else row.classification.value,
                row.delta_gap,
                row.p_raw,
                row.p_bonferroni,
                row.q_bh,
                ranks.get(i),
                row.flags,
            ]
        )
    _write_text(_csv_text(columns, rows_out, digits), args.out)
    if tab is not None:
        block = _csv_text(
            ["crosstab", "p_delta_zero", "p_delta_positive"],
            [
                ["bonferroni_significant", tab.sgpv_zero_significant,
                 tab.sgpv_positive_significant],
                ["bonferroni_not_significant", tab.sgpv_zero_not_significant,
                 tab.sgpv_positive_not_significant],
            ],
            digits,
        )
        if args.out in (None, "-"):
            sys.stdout.write("\n" + block)
        else:
            sys.stdout.write(block)
    return EXIT_OK


# ------------------------------------------------------------------- track


def _cmd_track(args) -> int:
    file_cfg = _load_config(args.config)
    null_spec = _resolve_null(args, file_cfg, allow_fold_change_default=False)
    digits = _resolve_int(args, file_cfg, "digits", 6)
    out_format = _resolve(args, file_cfg, "format", "csv")

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

    if out_format == "json":
        payload = [
            {"t": p.t, "p_delta": p.p_delta, "classification": p.classification.value,
             "grey_level": p.grey_level}
            for p in points
        ]
        _write_text(json.dumps({"rows": payload}, indent=2) + "\n", args.out)
    else:
        rows_out = [
            [p.t, p.p_delta, p.classification.value, p.grey_level] for p in points
        ]
        _write_text(_csv_text(["t", "p_delta", "classification", "grey_level"],
                              rows_out, digits), args.out)
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def _se_triplet(probs) -> list[float]:
    return [probs.p_alt, probs.p_null, probs.p_inconclusive]


def _cmd_simulate(args) -> int:
    file_cfg = _load_config(args.config)
    design = _resolve_design(args, file_cfg)
    theta = float(_resolve(args, file_cfg, "theta", design.theta0))
    replicates = _resolve_int(args, file_cfg, "replicates")
    if replicates is None:
        raise _ConfigError("--replicates is required")
    seed = _resolve_int(args, file_cfg, "seed", 0)
    chunks = _resolve_int(args, file_cfg, "chunks", 1)
    try:
        sim_cfg = SimConfig(design, theta, replicates, seed)
        result = simulate_outcomes(sim_cfg, chunks=chunks)
    except SgpvError as exc:
        raise _ConfigError(str(exc)) from exc

    closed = outcome_probs(theta, design)
    names = ("p_alt", "p_null", "p_inconclusive")
    payload = {
        "empirical": dict(zip(names, _se_triplet(result.empirical))),
        "closed_form": dict(zip(names, _se_triplet(closed))),
        "z_scores": {},
        "counts": {
            "alt": result.counts[0],
            "null": result.counts[1],
            "inconclusive": result.counts[2],
        },
        "replicates": sim_cfg.replicates,
        "seed": seed,
    }
    for name, emp, closed_p in zip(
        names, _se_triplet(result.empirical), _se_triplet(closed)
    ):
        se = math.sqrt(closed_p * (1.0 - closed_p) / sim_cfg.replicates)
        payload["z_scores"][name] = None if se == 0.0 else (emp - closed_p) / se

    theta1 = _resolve(args, file_cfg, "theta1")
    r = _resolve(args, file_cfg, "r")
    if (theta1 is None) != (r is None):
        raise _ConfigError("--theta1 and --r must be given together")
    if theta1 is not None:
        try:
            odds = PriorOdds(float(r))
        except SgpvError as exc:
            raise _ConfigError(str(exc)) from exc
        rel = simulate_reliability(sim_cfg, odds, float(theta1), chunks=chunks)
        try:
            closed_fdr = fdr_sgpv(float(theta1), design, odds)
        except SgpvError as exc:
            raise _ConfigError(str(exc)) from exc
        payload["reliability"] = {
            "empirical_fdr": rel.empirical_fdr,
            "empirical_fcr": rel.empirical_fcr,
            "closed_form_fdr": closed_fdr,
            "closed_form_fcr": fcr_sgpv(float(theta1), design, odds),
            "n_discoveries": rel.n_discoveries,
            "n_confirmations": rel.n_confirmations,
        }

    _write_text(json.dumps(payload, indent=2) + "\n", args.out)
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
