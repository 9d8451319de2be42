"""Independent reference for the outputs of the benchmarked CLI calls.

Nothing here imports ``sgpv``. The p_delta rule is re-derived in numpy
from its definition (|I ∩ H0| / |I|, reset to 1/2 when the estimate is
wider than twice the null and covers it; 0.5 |I ∩ H0| / |H0| for
one-sided estimates; whole-line estimates flagged). Pooled t intervals use
``scipy.special.stdtrit``/``stdtr``, BH q-values are computed in numpy and
the closed-form outcome, FDR and FCR curves use ``scipy.special.ndtr``.

Numbers the CLI prints at 6 significant digits must agree with the
reference to within one unit in the 6th significant digit. Everything
discrete (classification, flags, correction, delta-gap presence, row order
and ids, ranks, cross-tab cells) must agree exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from workloads import (
    COMPUTE_ROWS, CURVE_R, DESIGN, NULL_DELTA, NULL_POINT, SCREEN_ROWS, SIM_R,
    SIM_REPLICATES, SIM_THETA1,
)

H_LO, H_HI = NULL_POINT - NULL_DELTA, NULL_POINT + NULL_DELTA
SCREEN_LEVEL, SCREEN_ALPHA = 0.95, 0.05
# Absolute floor for probabilities built from differences of normal CDFs:
# libm erfc and scipy ndtr may differ in the last bit before a subtraction.
PROB_FLOOR = 1e-14
# Printing each of three probabilities at 6 significant digits moves the
# sum by at most 3 * 5e-7.
PRINTED_PARTITION_TOL = 1.5e-6 + 1e-12
# |z| <= 5 is checked only where the normal approximation of a count holds,
# not on the one-replicate minimal op.
Z_BOUND, Z_MIN_REPLICATES = 5.0, 1000


@dataclass
class Checked:
    ok: bool = True
    problems: list[str] = field(default_factory=list)
    mix: dict[str, int] = field(default_factory=dict)
    invariant: object = None  # must be equal across every full-size op

    def require(self, cond: bool, what: str) -> None:
        if not cond:
            self.ok = False
            self.problems.append(what)


# ------------------------------------------------------------ the p_delta rule


def p_delta_rule(lo, hi, h_lo: float, h_hi: float):
    """(p_delta, corrected, flagged) for interval estimates [lo, hi]."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    flagged = np.isinf(lo) & np.isinf(hi)
    o_lo, o_hi = np.maximum(lo, h_lo), np.minimum(hi, h_hi)
    disjoint = o_lo > o_hi
    nested = (h_lo <= lo) & (hi <= h_hi)
    len_h = h_hi - h_lo
    with np.errstate(invalid="ignore", divide="ignore"):
        o_len = np.where(disjoint, 0.0, o_hi - o_lo)
        len_i = hi - lo
        one_sided = np.isinf(len_i) & ~flagged
        covers = (lo <= h_lo) & (h_hi <= hi)
        reset = ~one_sided & (len_i > 2.0 * len_h) & covers
        p = np.where(one_sided, 0.5 * o_len / len_h, o_len / len_i)
    p = np.where(reset, 0.5, p)
    p = np.where(one_sided & (o_len == 0.0), 0.0, p)
    p = np.where(nested, 1.0, np.where(disjoint, 0.0, p))
    corrected = ~disjoint & ~nested & ((one_sided & (o_len > 0.0)) | reset)
    p = np.where(flagged, np.nan, p)
    return p, corrected & ~flagged, flagged


def delta_gap(lo, hi, h_lo: float, h_hi: float, delta: float):
    """Signed distance to the null in delta units, for rows with p_delta = 0."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    return np.where(lo >= h_hi, (lo - h_hi) / delta, (hi - h_lo) / delta)


def classification(p):
    return np.where(p == 0.0, "alternative_compatible",
                    np.where(p == 1.0, "null_compatible", "inconclusive"))


# -------------------------------------------------------- closed-form curves


def _cdf_diff(upper, lower):
    """Phi(upper) - Phi(lower), taken in the tail where it does not cancel."""
    upper, lower = np.broadcast_arrays(np.asarray(upper, float), np.asarray(lower, float))
    value = np.where(upper + lower > 0.0,
                     special.ndtr(-lower) - special.ndtr(-upper),
                     special.ndtr(upper) - special.ndtr(lower))
    return np.where(upper <= lower, 0.0, np.maximum(value, 0.0))


def _design():
    d = DESIGN
    se = np.sqrt(d["variance"] / d["n"])
    z = special.ndtri(1.0 - 0.5 * d["alpha"])
    return d, se, z, d["delta"] > z * se


def outcome_probs(theta):
    """(P(p=0), P(p=1), P(0<p<1)) at true effects theta under DESIGN."""
    d, se, z, gate = _design()
    theta = np.asarray(theta, float)
    a = (d["theta0"] - d["delta"] - theta) / se
    b = (d["theta0"] + d["delta"] - theta) / se
    alt = special.ndtr(a - z) + special.ndtr(-b - z)
    not_alt = _cdf_diff(b + z, a - z)
    if gate:
        null = _cdf_diff(b - z, a + z)
        inc = np.maximum(0.0, not_alt - null)
    else:
        null = np.zeros_like(theta)
        inc = np.minimum(1.0, not_alt)
    return alt, null, inc


def reliability(theta1, r: float):
    """(fdr_sgpv, fcr_sgpv or None, fdr_test, fnr_test) over alternatives theta1."""
    d, se, z, gate = _design()
    theta1 = np.asarray(theta1, float)
    alt0, null0, _ = outcome_probs(d["theta0"])
    alt1, null1, _ = outcome_probs(theta1)
    fdr = 1.0 / (1.0 + alt1 / alt0 * r)
    fcr = None
    if gate:
        with np.errstate(divide="ignore", over="ignore"):
            fcr = np.where(null1 <= 0.0, 0.0, 1.0 / (1.0 + (null0 / null1) / r))
    shift = (theta1 - d["theta0"]) / se
    beta = _cdf_diff(z - shift, -z - shift)
    alpha = d["alpha"]
    fdr_test = 1.0 / (1.0 + r * (1.0 - beta) / alpha)
    with np.errstate(divide="ignore", over="ignore"):
        fnr_test = np.where(beta == 0.0, 0.0, 1.0 / (1.0 + (1.0 - alpha) / (beta * r)))
    return fdr, fcr, fdr_test, fnr_test


# ----------------------------------------------------------------- screening


def pooled_t(g: dict[str, np.ndarray], level: float = SCREEN_LEVEL):
    """(lo, hi, two-sided p) of the pooled-variance t for mean1 - mean2."""
    n1, n2 = g["n1"].astype(float), g["n2"].astype(float)
    est = g["mean1"] - g["mean2"]
    df = n1 + n2 - 2.0
    pooled = ((n1 - 1.0) * g["sd1"] ** 2 + (n2 - 1.0) * g["sd2"] ** 2) / df
    se = np.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    t_crit = special.stdtrit(df, 0.5 * (1.0 + level))
    p = 2.0 * special.stdtr(df, -np.abs(est) / se)
    return est - t_crit * se, est + t_crit * se, p


def bh_qvalues(p):
    """Benjamini-Hochberg step-up q-values in input order."""
    p = np.asarray(p, float)
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = m * p[order] / np.arange(1, m + 1)
    q = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    out = np.empty(m)
    out[order] = q
    return out


# ------------------------------------------------------------ comparisons


def _num(column) -> np.ndarray:
    return np.array([float(v) if v != "" else np.nan for v in column])


def close6(cli, ref, floor: float = 0.0) -> np.ndarray:
    """Elementwise: cli equals ref to one unit in ref's 6th significant digit."""
    cli, ref = np.broadcast_arrays(np.asarray(cli, float), np.asarray(ref, float))
    with np.errstate(invalid="ignore", divide="ignore"):
        mag = np.where(ref == 0.0, 0.0, 10.0 ** (np.floor(np.log10(np.abs(ref))) - 5))
        ok = np.abs(cli - ref) <= np.maximum(mag, floor)
    return ok | (cli == ref) | (np.isnan(cli) & np.isnan(ref))


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _columns(header, rows, need, chk: Checked):
    cols = {name: i for i, name in enumerate(header)}
    missing = [n for n in need if n not in cols]
    chk.require(not missing, f"missing columns {missing}")
    if missing:
        return None
    return {n: [r[cols[n]] if cols[n] < len(r) else "" for r in rows] for n in need}


def _require_all(chk: Checked, mask, what: str) -> None:
    bad = np.flatnonzero(~np.asarray(mask, bool))
    if bad.size:
        chk.require(False, f"{what}: {bad.size} rows wrong, first at data row {bad[0]}")


def _check_rows(chk: Checked, c, lo, hi):
    """The columns compute and screen share: p_delta, classification, delta_gap, flags."""
    p, corrected, flagged = p_delta_rule(lo, hi, H_LO, H_HI)
    gap = delta_gap(lo, hi, H_LO, H_HI, NULL_DELTA)
    cli_p = _num(c["p_delta"])
    _require_all(chk, close6(cli_p, p), "p_delta")
    want_class = np.where(flagged, "", classification(p))
    _require_all(chk, np.array(c["classification"]) == want_class, "classification")
    cli_gap = _num(c["delta_gap"])
    has_gap = ~np.isnan(cli_gap)
    _require_all(chk, has_gap == (cli_p == 0.0), "delta_gap present iff p_delta = 0")
    _require_all(chk, ~has_gap | close6(cli_gap, gap), "delta_gap")
    want_flags = np.where(flagged, "unbounded_estimate", "")
    _require_all(chk, np.array(c["flags"]) == want_flags, "flags")
    chk.mix.update(
        alt=int(np.sum(p == 0.0)), null=int(np.sum(p == 1.0)),
        inconclusive=int(np.sum((p > 0.0) & (p < 1.0))),
        reset=int(corrected.sum()), flagged=int(flagged.sum()),
    )
    return p, gap, corrected, flagged


def check_compute(data: dict, minimal: bool, outputs: list[str]) -> Checked:
    chk = Checked()
    rows = 1 if minimal else COMPUTE_ROWS
    lo, hi = data["lo"][:rows], data["hi"][:rows]
    header, table = _table(outputs[0])
    c = _columns(header, table, ["id", "lo", "hi", "p_delta", "classification",
                                 "correction_applied", "delta_gap", "flags"], chk)
    if c is None:
        return chk
    chk.require(len(table) == rows, f"{len(table)} rows, want {rows}")
    if len(table) != rows:
        return chk
    chk.require(c["id"] == [f"r{i}" for i in range(rows)], "row ids or order")
    _require_all(chk, close6(_num(c["lo"]), lo) & close6(_num(c["hi"]), hi), "lo/hi echo")
    _, _, corrected, flagged = _check_rows(chk, c, lo, hi)
    want = np.where(flagged, "", np.where(corrected, "true", "false"))
    _require_all(chk, np.array(c["correction_applied"]) == want, "correction_applied")
    return chk


def check_screen(data: dict, minimal: bool, outputs: list[str]) -> Checked:
    chk = Checked()
    rows = 1 if minimal else SCREEN_ROWS
    g = {k: v[:rows] for k, v in data.items()}
    text, sep, block = outputs[0].partition("\n\n")
    chk.require(bool(sep), "no cross-tab block after the rows")
    header, table = _table(text)
    c = _columns(header, table, ["id", "p_delta", "classification", "delta_gap", "p_raw",
                                 "p_bonferroni", "q_bh", "rank", "flags"], chk)
    if c is None:
        return chk
    chk.require(len(table) == rows, f"{len(table)} rows, want {rows}")
    if len(table) != rows:
        return chk
    chk.require(c["id"] == [f"g{i}" for i in range(rows)], "row ids or order")
    lo, hi, p_raw = pooled_t(g)
    p, gap, _, flagged = _check_rows(chk, c, lo, hi)
    chk.mix["true_effects"] = int(g["true_effect"].sum())
    m = rows
    _require_all(chk, close6(_num(c["p_raw"]), p_raw), "p_raw")
    _require_all(chk, close6(_num(c["p_bonferroni"]), np.minimum(1.0, m * p_raw)),
                 "p_bonferroni")
    _require_all(chk, close6(_num(c["q_bh"]), bh_qvalues(p_raw)), "q_bh")
    # ranks: p_delta ascending, ties at 0 by |delta_gap| descending, then input order
    ranked = ~flagged
    key_gap = np.where(p == 0.0, -np.abs(gap), 0.0)
    order = np.lexsort((np.arange(rows), key_gap, p))
    order = order[ranked[order]]
    want_rank = np.full(rows, "", dtype=object)
    want_rank[order] = [str(k) for k in range(1, order.size + 1)]
    chk.require(list(want_rank) == c["rank"], "ranks are not the documented order")
    # cross-tab of {p_delta = 0, > 0} x Bonferroni over the unflagged rows
    kept = ~flagged
    sig = p_raw[kept] < SCREEN_ALPHA / kept.sum()
    zero = p[kept] == 0.0
    want = [int(np.sum(zero & sig)), int(np.sum(~zero & sig)),
            int(np.sum(zero & ~sig)), int(np.sum(~zero & ~sig))]
    bh, bt = _table(block)
    try:
        cells = [int(bt[0][1]), int(bt[0][2]), int(bt[1][1]), int(bt[1][2])]
    except (IndexError, ValueError):
        cells = None
    chk.require(bh[:1] == ["crosstab"] and cells == want, f"cross-tab {cells}, want {want}")
    chk.require(cells is not None and sum(cells) == int(kept.sum()),
                "cross-tab cells do not sum to the unflagged rows")
    return chk


def check_simulate(data: dict, minimal: bool, outputs: list[str]) -> Checked:
    chk = Checked()
    replicates = 1 if minimal else SIM_REPLICATES
    try:
        out = json.loads(outputs[0])
        counts = [out["counts"][k] for k in ("alt", "null", "inconclusive")]
        emp = [out["empirical"][k] for k in ("p_alt", "p_null", "p_inconclusive")]
        closed = [out["closed_form"][k] for k in ("p_alt", "p_null", "p_inconclusive")]
        zs = [out["z_scores"][k] for k in ("p_alt", "p_null", "p_inconclusive")]
        rel = out["reliability"]
    except (ValueError, KeyError, TypeError) as exc:
        chk.require(False, f"unreadable simulate output: {exc!r}")
        return chk
    chk.require(out.get("replicates") == replicates and out.get("seed") == data["sim_seed"],
                "replicates/seed echo")
    chk.require(sum(counts) == replicates, "counts do not sum to the replicates")
    chk.require(all(e == c / replicates for e, c in zip(emp, counts)), "empirical != counts/N")
    ref = [float(v) for v in outcome_probs(DESIGN["theta0"])]
    _require_all(chk, close6(closed, ref, PROB_FLOOR), "closed-form outcome probabilities")
    chk.require(abs(sum(closed) - 1.0) <= 1e-9, "closed-form partition of unity")
    if replicates >= Z_MIN_REPLICATES:
        chk.require(all(z is None or abs(z) <= Z_BOUND for z in zs), f"|z| > {Z_BOUND}: {zs}")
    fdr, fcr, _, _ = reliability(SIM_THETA1, SIM_R)
    _require_all(chk, close6(rel["closed_form_fdr"], fdr, PROB_FLOOR), "closed-form FDR")
    chk.require((fcr is None) == (rel["closed_form_fcr"] is None), "closed-form FCR presence")
    if fcr is not None and rel["closed_form_fcr"] is not None:
        _require_all(chk, close6(rel["closed_form_fcr"], fcr, PROB_FLOOR), "closed-form FCR")
    chk.require(0 <= rel["n_discoveries"] <= replicates
                and 0 <= rel["n_confirmations"] <= replicates, "reliability tallies")
    chk.mix.update(alt=counts[0], null=counts[1], inconclusive=counts[2])
    chk.invariant = (tuple(counts), rel["n_discoveries"], rel["n_confirmations"],
                     rel["empirical_fdr"], rel["empirical_fcr"])
    return chk


def check_curves(data: dict, minimal: bool, outputs: list[str]) -> Checked:
    chk = Checked()
    lo, hi, count = data["grid_min"] if minimal else data["grid"]
    theta = np.linspace(lo, hi, count)
    header, table = _table(outputs[0])
    c = _columns(header, table, ["theta", "p_alt", "p_null", "p_inconclusive"], chk)
    rheader, rtable = _table(outputs[1])
    rc = _columns(rheader, rtable, ["theta1", "fdr_sgpv", "fcr_sgpv", "fdr_test",
                                    "fnr_test"], chk)
    if c is None or rc is None:
        return chk
    chk.require(len(table) == count and len(rtable) == count, "grid rows")
    if not chk.ok:
        return chk
    _require_all(chk, close6(_num(c["theta"]), theta), "design theta")
    probs = [_num(c[k]) for k in ("p_alt", "p_null", "p_inconclusive")]
    for name, cli, ref in zip(("p_alt", "p_null", "p_inconclusive"), probs, outcome_probs(theta)):
        _require_all(chk, close6(cli, ref, PROB_FLOOR), name)
    _require_all(chk, np.abs(sum(probs) - 1.0) <= PRINTED_PARTITION_TOL, "partition of unity")
    _require_all(chk, close6(_num(rc["theta1"]), theta), "reliability theta1")
    fdr, fcr, fdr_test, fnr_test = reliability(theta, CURVE_R)
    _require_all(chk, close6(_num(rc["fdr_sgpv"]), fdr, PROB_FLOOR), "fdr_sgpv")
    cli_fcr = _num(rc["fcr_sgpv"])
    if fcr is None:
        _require_all(chk, np.isnan(cli_fcr), "fcr_sgpv must be empty with the gate closed")
    else:
        _require_all(chk, close6(cli_fcr, fcr, PROB_FLOOR), "fcr_sgpv")
    _require_all(chk, close6(_num(rc["fdr_test"]), fdr_test, PROB_FLOOR), "fdr_test")
    _require_all(chk, close6(_num(rc["fnr_test"]), fnr_test, PROB_FLOOR), "fnr_test")
    chk.mix.update(null_zero=int(np.sum(probs[1] == 0.0)),
                   beta_underflow=int(np.sum(_num(rc["fnr_test"]) == 0.0)))
    return chk


CHECKS = {
    "compute_intervals": check_compute,
    "screen_groups": check_screen,
    "simulate_mc": check_simulate,
    "curves": check_curves,
}


def check(workload: str, data: dict, minimal: bool, outputs: list[str]) -> Checked:
    """Check the outputs of one op, one text per child, against the reference."""
    return CHECKS[workload](data, minimal, outputs)
