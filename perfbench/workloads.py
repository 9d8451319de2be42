"""Seeded inputs and CLI invocations for the four benchmark workloads.

Every input is drawn from ``numpy.random.default_rng(seed)`` and written
to a scratch directory, so the same seed gives byte-identical files. The
program only ever sees the generated files and flags; the arrays kept in
``Prepared.data`` are the ground truth the output checker uses.

An *op* is what the closed-loop client waits for: one or more ``sgpv``
child processes run back to back. Each workload has full-size ops (what
``items_per_s`` and ``peak_rss_mb`` measure) and a minimal op of the same
subcommand(s) on one row, one grid point or one replicate (what
``setup_s`` measures).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

NULL_POINT, NULL_DELTA = 0.0, 0.5
NULL_FLAGS = ("--null-point", f"{NULL_POINT:g}", "--delta", f"{NULL_DELTA:g}")
# The design of the Monte Carlo and curve workloads: theta0=0, delta=0.5,
# n=16, V=1, so se=0.25 and the nesting gate delta > z*se is just open.
# alpha is the CLI's default.
DESIGN = {"theta0": 0.0, "delta": 0.5, "n": 16.0, "variance": 1.0, "alpha": 0.05}
DESIGN_FLAGS = tuple(
    part for key in ("theta0", "delta", "n", "variance") for part in (f"--{key}", f"{DESIGN[key]:g}")
)

COMPUTE_ROWS = 100_000
SCREEN_ROWS = 20_000
SIM_REPLICATES = 100_000
SIM_THETA1, SIM_R = 1.0, 1.0
CURVE_POINTS = 50_000
CURVE_SPAN = (-12.0, 12.0)  # reaches |theta| > 10, where the test's beta underflows
CURVE_R = 1.0

# Rows per p_delta branch in ``compute_intervals``; they sum to COMPUTE_ROWS.
COMPUTE_MIX = {
    "clear": 30_000,         # disjoint from the null, gap > 0
    "nested": 20_000,        # inside the null
    "straddle": 25_000,      # crosses one null edge, some wider than 2|H0|
    "cover_narrow": 5_000,   # covers the null, width <= 2|H0|: no reset
    "reset": 10_000,         # covers the null, width > 2|H0|: the 1/2 reset
    "touching": 4_000,       # shares one endpoint with the null: gap 0
    "one_sided": 5_900,      # [c, inf) or (-inf, c]
    "whole_line": 100,       # (-inf, inf): flagged unbounded_estimate
}
SCREEN_EFFECT_SHARE = 0.10


@dataclass(frozen=True)
class Op:
    """One closed-loop request: ``argvs`` run in order, one child each."""

    argvs: tuple[tuple[str, ...], ...]
    items: int


@dataclass
class Prepared:
    name: str
    full: list[Op]  # variants of the full op, run in turn
    minimal: Op
    data: dict


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _interval_rows(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of COMPUTE_ROWS intervals drawn per COMPUTE_MIX, in a seeded order."""
    h_lo, h_hi = NULL_POINT - NULL_DELTA, NULL_POINT + NULL_DELTA
    los, his = [], []
    for kind, count in COMPUTE_MIX.items():
        sign = rng.choice([-1.0, 1.0], size=count)
        width = rng.uniform(0.05, 3.0, size=count)
        if kind == "clear":
            start = h_hi + rng.exponential(0.5, size=count) + 1e-3
            lo, hi = start, start + width
        elif kind == "nested":
            width = rng.uniform(0.01, 0.95, size=count)
            lo = rng.uniform(h_lo, h_hi - width)
            hi = lo + width
        elif kind == "straddle":
            inside = rng.uniform(0.01, 0.99, size=count) * np.minimum(width, h_hi - h_lo)
            lo = h_hi - inside
            hi = lo + width
        elif kind == "cover_narrow":
            width = rng.uniform(1.01, 2.0, size=count)
            lo = h_lo - rng.uniform(0.0, 1.0, size=count) * (width - (h_hi - h_lo))
            hi = lo + width
        elif kind == "reset":
            width = rng.uniform(2.05, 6.0, size=count)
            lo = h_lo - rng.uniform(0.0, 1.0, size=count) * (width - (h_hi - h_lo))
            hi = lo + width
        elif kind == "touching":
            lo, hi = np.full(count, h_hi), h_hi + width
        elif kind == "one_sided":
            lo, hi = rng.uniform(-1.5, 1.5, size=count), np.full(count, np.inf)
        else:  # whole_line
            lo, hi = np.full(count, -np.inf), np.full(count, np.inf)
        if kind != "whole_line":
            # mirror half of the rows to the other side of the null
            lo, hi = np.where(sign < 0, -hi, lo), np.where(sign < 0, -lo, hi)
        los.append(lo)
        his.append(hi)
    order = rng.permutation(COMPUTE_ROWS)
    return np.concatenate(los)[order], np.concatenate(his)[order]


def _interval_csv(lo: np.ndarray, hi: np.ndarray) -> str:
    lines = ["id,lo,hi"]
    lines.extend(f"r{i},{a!r},{b!r}" for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())))
    return "\n".join(lines) + "\n"


def _compute(seed: int, tmp: str) -> Prepared:
    lo, hi = _interval_rows(np.random.default_rng(seed))
    full_path, min_path = os.path.join(tmp, "intervals.csv"), os.path.join(tmp, "interval1.csv")
    _write(full_path, _interval_csv(lo, hi))
    _write(min_path, _interval_csv(lo[:1], hi[:1]))
    flags = NULL_FLAGS
    return Prepared(
        "compute_intervals",
        full=[Op((("compute", full_path, *flags),), COMPUTE_ROWS)],
        minimal=Op((("compute", min_path, *flags),), 1),
        data={"lo": lo, "hi": hi},
    )


def _group_rows(rng: np.random.Generator, rows: int) -> dict[str, np.ndarray]:
    """Two-group summaries of log-scale expression levels, one gene per row.

    Group sizes are uniform on 5..40, per-gene sds lognormal around 1 and
    a fixed share of genes carries an effect drawn from N(0, (1.5 sd)^2).
    Sample means and sds are drawn from their sampling distributions.
    """
    n1 = rng.integers(5, 41, size=rows)
    n2 = rng.integers(5, 41, size=rows)
    mu = rng.normal(8.0, 2.0, size=rows)
    sigma = rng.lognormal(0.0, 0.5, size=rows)
    effect = np.zeros(rows)
    carriers = rng.choice(rows, size=int(round(SCREEN_EFFECT_SHARE * rows)), replace=False)
    effect[carriers] = rng.normal(0.0, 1.5, size=carriers.size) * sigma[carriers]
    mean1 = mu + effect + sigma * rng.standard_normal(rows) / np.sqrt(n1)
    mean2 = mu + sigma * rng.standard_normal(rows) / np.sqrt(n2)
    sd1 = sigma * np.sqrt(rng.chisquare(n1 - 1) / (n1 - 1))
    sd2 = sigma * np.sqrt(rng.chisquare(n2 - 1) / (n2 - 1))
    return {"n1": n1, "mean1": mean1, "sd1": sd1, "n2": n2, "mean2": mean2,
            "sd2": sd2, "true_effect": effect != 0.0}


def _group_csv(g: dict[str, np.ndarray], rows: int) -> str:
    lines = ["id,n1,mean1,sd1,n2,mean2,sd2"]
    cols = [g[k][:rows].tolist() for k in ("n1", "mean1", "sd1", "n2", "mean2", "sd2")]
    lines.extend(
        f"g{i},{a},{b!r},{c!r},{d},{e!r},{f!r}"
        for i, (a, b, c, d, e, f) in enumerate(zip(*cols))
    )
    return "\n".join(lines) + "\n"


def _screen(seed: int, tmp: str) -> Prepared:
    groups = _group_rows(np.random.default_rng(seed), SCREEN_ROWS)
    full_path, min_path = os.path.join(tmp, "groups.csv"), os.path.join(tmp, "group1.csv")
    _write(full_path, _group_csv(groups, SCREEN_ROWS))
    _write(min_path, _group_csv(groups, 1))
    flags = (*NULL_FLAGS, "--crosstab")
    return Prepared(
        "screen_groups",
        full=[Op((("screen", full_path, *flags),), SCREEN_ROWS)],
        minimal=Op((("screen", min_path, *flags),), 1),
        data=groups,
    )


def _simulate(seed: int, tmp: str) -> Prepared:
    sim_seed = seed % 2**64

    def op(replicates: int, chunks: int) -> Op:
        return Op(((
            "simulate", *DESIGN_FLAGS, "--theta1", f"{SIM_THETA1:g}", "--r", f"{SIM_R:g}",
            "--replicates", str(replicates), "--seed", str(sim_seed),
            "--chunks", str(chunks), "--format", "json",
        ),), replicates)

    return Prepared(
        "simulate_mc",
        full=[op(SIM_REPLICATES, 1), op(SIM_REPLICATES, 4)],
        minimal=op(1, 1),
        data={"sim_seed": sim_seed},
    )


def _curves(seed: int, tmp: str) -> Prepared:
    # A seeded shift below one grid step: the same regions, other points.
    step = (CURVE_SPAN[1] - CURVE_SPAN[0]) / (CURVE_POINTS - 1)
    shift = float(np.random.default_rng(seed).uniform(0.0, step))
    lo, hi = CURVE_SPAN[0] + shift, CURVE_SPAN[1] + shift

    def op(grid: str, points: int) -> Op:
        return Op((
            ("design", *DESIGN_FLAGS, f"--grid={grid}"),
            ("reliability", *DESIGN_FLAGS, "--r", f"{CURVE_R:g}", f"--grid={grid}"),
        ), 2 * points)

    return Prepared(
        "curves",
        full=[op(f"{lo!r}:{hi!r}:{CURVE_POINTS}", CURVE_POINTS)],
        minimal=op(f"{lo!r}:{lo!r}:1", 1),
        data={"grid": (lo, hi, CURVE_POINTS), "grid_min": (lo, lo, 1)},
    )


PREPARE = {
    "compute_intervals": _compute,
    "screen_groups": _screen,
    "simulate_mc": _simulate,
    "curves": _curves,
}


def prepare(name: str, seed: int, tmp: str) -> Prepared:
    """Write the workload's inputs for ``seed`` under ``tmp`` and describe its ops."""
    return PREPARE[name](seed, tmp)
