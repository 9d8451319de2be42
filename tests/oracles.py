"""Independent numerical oracles used only by the test suite.

The normal CDF oracle evaluates the Maclaurin series

    Phi(x) = 1/2 + phi(x) * (x + x^3/3 + x^5/(3*5) + x^7/(3*5*7) + ...)

in 60-digit decimal arithmetic, switching to a Lentz-style continued
fraction for the Mills ratio in the far tail. The t CDF oracle integrates
the density with composite Simpson after an arctangent substitution.
Both are deliberately different algorithms from the production paths
(erfc rational approximation, AS 241, scipy.special.stdtr/stdtrit).

The AS 241 reference is the former scalar ``norm_quantile``: the same
coefficients, Horner order and branch cuts in Python float arithmetic,
one probability at a time. The package's only implementation,
``_normal.norm_quantile_array``, must match it bit for bit.

The p_delta oracle is the scalar rule on interval objects, ``_p_delta``
with the intersect-based ``delta_gap``: one branch per convention,
evaluated through ``intervals.intersect`` and ``length``, against which
the package's only implementation, the array kernel
``core.p_delta_array``, is checked bit for bit. Where the length of an
interval with finite endpoints overflows, ``half_length`` and the lengths
in ``_p_delta`` are taken with fractions instead (the lengths exact, then
rounded to 53 bits), which the kernel must match to a few ulps; so is the
difference in ``delta_gap`` where it overflows.
The interval rules the package states once are restated here as they
stood in each caller: ``classify``'s verdict branches, ``z_interval``'s
endpoint arithmetic ``z_endpoints`` and the design gate
``delta <= z_crit * se`` (in ``prob_null``).

The two-group t-test oracle is the scalar ``two_sample_ci`` on
``GroupSummary`` pairs through frozen ``scipy.stats.t`` distributions,
with Python float arithmetic that raises where it over- or underflows;
``screening.two_sample_ci_array`` and its one-row view must match it bit
for bit and reject exactly the rows it rejects.

The closed-form curve oracle is the scalar design and reliability code:
one Python call per grid point through ``_normal.norm_cdf``, the gate
``delta <= z * se`` and the Bayes ratios, with ``max``/``min`` clamps
that turn NaN into 0 or 1. ``design.outcome_probs_array``,
``reliability.reliability_rates_array`` and their one-row views must
match it bit for bit, the sign of zero included, and raise the same
error at the same first point.

The CLI table oracle is the row-at-a-time pipeline: ``read_table`` keeps
stripped fields per line, ``parse_compute_rows``,
``parse_interval_rows``, ``parse_group_rows`` and ``parse_track_rows``
build one interval object per row and raise at the first bad line, and
``write_csv``/``json_text`` format each cell by its Python type.
``bh_qvalues`` and ``ranked_indices`` are the Python sort-and-scan
versions of the screening adjustments. The columnar CLI and
its numpy adjustments must give the same bytes, the same error lines and
bitwise the same q-values and ranks.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from decimal import Decimal, getcontext
from enum import Enum
from fractions import Fraction
from operator import attrgetter

from scipy import stats as _scipy_stats

from typing import Sequence

from sgpv import _normal
from sgpv._normal import _A, _B, _C, _D, _E, _F, norm_cdf
from sgpv.core import Classification, NullSpec, second_gen_p
from sgpv.design import DesignConfig, OutcomeProbs, PowerCurvePoint
from sgpv.errors import (
    DegenerateDesign,
    InvalidInterval,
    InvalidProbability,
    InvalidProportion,
    InvalidSeries,
    InvalidSummary,
    SgpvError,
    UnboundedEstimate,
)
from sgpv.reliability import PriorOdds, ReliabilityPoint
from sgpv.intervals import ExtendedInterval, intersect, length, z_interval
from sgpv.screening import GroupSummary, StudyRow

getcontext().prec = 60

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
_TAIL_SPLIT = 8.0


def _density(x: Decimal) -> Decimal:
    return (-(x * x) / 2).exp() / (2 * _PI).sqrt()


def _series_cdf(x: Decimal) -> Decimal:
    # Phi(x) = 1/2 + phi(x) * sum_k x^(2k+1) / (1*3*...*(2k+1))
    term = x
    total = x
    k = 0
    while abs(term) > Decimal("1e-70") * (abs(total) + 1):
        k += 1
        term *= x * x / (2 * k + 1)
        total += term
    return Decimal("0.5") + _density(x) * total


def _tail_upper(x: Decimal, depth: int = 400) -> Decimal:
    # P(Z > x) = phi(x) / (x + 1/(x + 2/(x + 3/(x + ...)))) for x > 0
    frac = x
    for k in range(depth, 0, -1):
        frac = x + Decimal(k) / frac
    return _density(x) / frac


def normal_cdf_oracle(x: float) -> float:
    """Reference Phi(x), accurate far beyond double precision."""
    d = Decimal(x)
    if x < -_TAIL_SPLIT:
        return float(_tail_upper(-d))
    if x > _TAIL_SPLIT:
        return float(Decimal(1) - _tail_upper(d))
    return float(_series_cdf(d))


def normal_quantile_oracle(p: float) -> float:
    """Quantile by bisection on the CDF oracle."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf_oracle(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def _poly(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def norm_quantile(p: float) -> float:
    """Inverse standard normal CDF (Wichura's PPND16 / AS 241)."""
    if not 0.0 < p < 1.0:
        raise InvalidProbability(f"quantile argument must be in (0, 1), got {p!r}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _poly(_A, r) / _poly(_B, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        x = _poly(_C, r - 1.6) / _poly(_D, r - 1.6)
    else:
        x = _poly(_E, r - 5.0) / _poly(_F, r - 5.0)
    return -x if q < 0.0 else x


def t_cdf_oracle(t: float, df: float, points: int = 20001) -> float:
    """Student t CDF by Simpson quadrature under u = arctan(x/sqrt(df)).

    With x = sqrt(df) * tan(u), the density transforms to
    C * sqrt(df) * cos(u)^(df - 1), a smooth bounded integrand on
    (-pi/2, arctan(t / sqrt(df))].
    """
    if points % 2 == 0:
        points += 1
    log_c = (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
    )
    c_sqrt_df = math.exp(log_c) * math.sqrt(df)

    def integrand(u: float) -> float:
        return c_sqrt_df * math.cos(u) ** (df - 1.0)

    lo = -0.5 * math.pi
    hi = math.atan(t / math.sqrt(df))
    h = (hi - lo) / (points - 1)
    total = integrand(lo) + integrand(hi)
    for i in range(1, points - 1):
        total += integrand(lo + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def t_quantile_oracle(p: float, df: float) -> float:
    """t quantile by bisection on the Simpson oracle."""
    lo, hi = -400.0, 400.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if t_cdf_oracle(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def half_length(lo: float, hi: float) -> float:
    """Half of hi - lo: the float formula where the length is finite, else exact."""
    half = 0.5 * (hi - lo)
    if math.isinf(half) and math.isfinite(lo) and math.isfinite(hi):
        return float((Fraction(hi) - Fraction(lo)) / 2)
    return half


def classify(p_delta: float) -> Classification:
    """The verdict of a proportion by its own branches: 0, 1, or in between."""
    if math.isnan(p_delta) or not 0.0 <= p_delta <= 1.0:
        raise InvalidProportion(f"p_delta must lie in [0, 1], got {p_delta!r}")
    if p_delta == 0.0:
        return Classification.ALTERNATIVE_COMPATIBLE
    if p_delta == 1.0:
        return Classification.NULL_COMPATIBLE
    return Classification.INCONCLUSIVE


def z_endpoints(estimate: float, se: float, level: float) -> tuple[float, float]:
    """estimate -/+ z * se in Python float arithmetic, as z_interval computed it."""
    half = norm_quantile(0.5 * (1.0 + level)) * se
    return estimate - half, estimate + half


def _p_delta(i: ExtendedInterval, h: ExtendedInterval) -> tuple[float, bool]:
    """Core computation on bare intervals: (p_delta, correction_applied)."""
    if math.isinf(i.lo) and math.isinf(i.hi):
        raise UnboundedEstimate(
            "interval estimate covers the whole real line; truncate() it to "
            "the plausible effect range first"
        )
    overlap = intersect(i, h)
    if overlap is None:
        return 0.0, False
    if h.lo <= i.lo and i.hi <= h.hi:
        # every data-supported hypothesis is a null hypothesis
        return 1.0, False
    overlap_len, len_i, len_h = _lengths(overlap, i, h)
    if not i.is_finite:  # one-sided
        if overlap_len == 0.0:
            return 0.0, False
        if not h.is_finite:
            # two one-sided intervals: all or nothing
            return (1.0, False) if overlap_len == math.inf else (0.0, False)
        return float(overlap_len / len_h / 2), True
    if len_i > 2 * len_h and i.lo <= h.lo and h.hi <= i.hi:
        # estimate too imprecise to adjudicate, yet every null hypothesis
        # is supported: strictly inconclusive
        return 0.5, True
    return float(overlap_len / len_i), False


def _lengths(*intervals: ExtendedInterval) -> list:
    """Float lengths; where the float length of a finite interval overflows,
    Fractions instead: each exact length rounded to a double's 53 bits, as
    floats with no largest value would give it."""
    lengths = [length(x) for x in intervals]
    if any(math.isinf(n) and x.is_finite for n, x in zip(lengths, intervals)):
        return [_rounded(Fraction(x.hi) - Fraction(x.lo)) if x.is_finite else math.inf
                for x in intervals]
    return lengths


def _rounded(x: Fraction) -> Fraction:
    try:
        return Fraction(float(x))
    except OverflowError:  # the difference of two doubles is below 2**1025
        return 2 * Fraction(float(x / 2))


def delta_gap(i: ExtendedInterval, h0: NullSpec) -> float | None:
    """Distance between a non-overlapping estimate and the null, in delta units.

    Positive when the estimate lies above the null interval, negative when
    below, and None when the intervals properly overlap. A shared endpoint
    yields a gap of zero.
    """
    null = h0.interval
    overlap = intersect(i, null)
    if overlap is not None and length(overlap) > 0.0:
        return None
    if i.lo >= null.hi:
        return _over_delta(i.lo, null.hi, h0.delta)
    return _over_delta(i.hi, null.lo, h0.delta)


def _over_delta(a: float, b: float, delta: float) -> float:
    """(a - b) / delta; where a - b of finite a and b overflows, the difference
    exact and rounded to 53 bits, as in ``_lengths``, and the quotient rounded once."""
    diff = a - b
    if not (math.isinf(diff) and math.isfinite(a) and math.isfinite(b)):
        return diff / delta
    try:
        return float(_rounded(Fraction(a) - Fraction(b)) / Fraction(delta))
    except OverflowError:
        return math.copysign(math.inf, diff)


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


def _cdf_diff(upper: float, lower: float) -> float:
    """Phi(upper) - Phi(lower) without cancellation in the upper tail."""
    if upper <= lower:
        return 0.0
    if upper + lower > 0.0:
        value = _normal.norm_cdf(-lower) - _normal.norm_cdf(-upper)
    else:
        value = _normal.norm_cdf(upper) - _normal.norm_cdf(lower)
    return max(0.0, value)


def _standardized_edges(theta: float, cfg: DesignConfig) -> tuple[float, float]:
    se = cfg.se
    a = (cfg.theta0 - cfg.delta - theta) / se
    b = (cfg.theta0 + cfg.delta - theta) / se
    return a, b


def prob_alt(theta: float, cfg: DesignConfig) -> float:
    """P(p_delta = 0 | theta): the interval estimate clears the null interval.

    Plays the role of power; inside the null interval it is the error
    rate, bounded above by alpha and vanishing with n in the interior.
    """
    a, b = _standardized_edges(theta, cfg)
    z = cfg.z_crit
    return _normal.norm_cdf(a - z) + _normal.norm_cdf(-b - z)


def prob_null(theta: float, cfg: DesignConfig) -> float:
    """P(p_delta = 1 | theta): the interval estimate nests inside the null.

    Exactly zero when delta <= z * se (including equality), where nesting
    is impossible.
    """
    z = cfg.z_crit
    if cfg.delta <= z * cfg.se:
        return 0.0
    a, b = _standardized_edges(theta, cfg)
    return _cdf_diff(b - z, a + z)


def prob_inconclusive(theta: float, cfg: DesignConfig) -> float:
    """P(0 < p_delta < 1 | theta): the interval straddles a null boundary."""
    a, b = _standardized_edges(theta, cfg)
    z = cfg.z_crit
    not_alt = _cdf_diff(b + z, a - z)  # 1 - prob_alt by tail symmetry
    if cfg.delta <= z * cfg.se:
        return min(1.0, not_alt)
    return max(0.0, not_alt - _cdf_diff(b - z, a + z))


def outcome_probs(theta: float, cfg: DesignConfig) -> OutcomeProbs:
    """Bundle the three outcome probabilities; they sum to one."""
    return OutcomeProbs(
        prob_alt(theta, cfg),
        prob_null(theta, cfg),
        prob_inconclusive(theta, cfg),
    )


def emit_power_curve(
    cfg: DesignConfig, theta_grid: Sequence[float]
) -> list[PowerCurvePoint]:
    """Outcome probabilities over a grid of true hypotheses, in grid order."""
    if len(theta_grid) == 0:
        raise InvalidSeries("theta grid is empty")
    rows = []
    for theta in theta_grid:
        probs = outcome_probs(theta, cfg)
        rows.append(
            PowerCurvePoint(theta, probs.p_alt, probs.p_null, probs.p_inconclusive)
        )
    return rows


def fdr_sgpv(theta1: float, cfg: DesignConfig, odds: PriorOdds) -> float:
    """False discovery rate of p_delta = 0 against the alternative theta1."""
    p_alt_null = prob_alt(cfg.theta0, cfg)
    if p_alt_null <= 0.0:
        raise DegenerateDesign(
            "P(p_delta = 0 | theta0) underflowed to zero; the Bayes ratio "
            "is undefined at this design"
        )
    ratio = prob_alt(theta1, cfg) / p_alt_null
    return 1.0 / (1.0 + ratio * odds.r)


def fcr_sgpv(theta1: float, cfg: DesignConfig, odds: PriorOdds) -> float | None:
    """False confirmation rate of p_delta = 1, or None when undefined.

    None signals that the interval estimate is too wide to ever nest in
    the null interval, so confirmation events cannot occur.
    """
    if cfg.delta <= cfg.z_crit * cfg.se:
        return None
    p_null_alt = prob_null(theta1, cfg)
    if p_null_alt <= 0.0:
        return 0.0  # limit as the alternative's nesting probability vanishes
    return 1.0 / (1.0 + (prob_null(cfg.theta0, cfg) / p_null_alt) / odds.r)


def _test_rates(odds: PriorOdds, alpha: float, beta: float) -> tuple[float, float]:
    """(fdr_test, fnr_test), defined down to beta = 0.

    As beta -> 0, fdr_test -> [1 + r/alpha]^-1, which the formula gives
    as it stands, and fnr_test -> 0, which is used once beta * r
    underflows to zero.
    """
    fdr = 1.0 / (1.0 + odds.r * (1.0 - beta) / alpha)
    if beta * odds.r == 0.0:
        return fdr, 0.0
    return fdr, 1.0 / (1.0 + (1.0 - alpha) / (beta * odds.r))


def classical_power(theta1: float, cfg: DesignConfig) -> float:
    """Two-sided z-test power at theta1 under the same (n, V, alpha)."""
    shift = (theta1 - cfg.theta0) / cfg.se
    z = cfg.z_crit
    return norm_cdf(-z - shift) + norm_cdf(-z + shift)


def classical_beta(theta1: float, cfg: DesignConfig) -> float:
    """Type II rate of the two-sided z-test, evaluated tail-stably."""
    shift = (theta1 - cfg.theta0) / cfg.se
    z = cfg.z_crit
    return _cdf_diff(z - shift, -z - shift)


def emit_reliability_curve(
    cfg: DesignConfig, odds: PriorOdds, theta1_grid: Sequence[float]
) -> list[ReliabilityPoint]:
    """Compare sgpv and test error rates over a grid of alternatives.

    The comparator's beta is the classical two-sided Type II rate at each
    theta1; when it underflows to zero the test limits are used
    (fnr_test -> 0, fdr_test -> [1 + r/alpha]^-1).
    """
    if len(theta1_grid) == 0:
        raise InvalidSeries("theta1 grid is empty")
    rows = []
    for theta1 in theta1_grid:
        test_fdr, test_fnr = _test_rates(odds, cfg.alpha, classical_beta(theta1, cfg))
        rows.append(
            ReliabilityPoint(
                theta1,
                fdr_sgpv(theta1, cfg, odds),
                fcr_sgpv(theta1, cfg, odds),
                test_fdr,
                test_fnr,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# The row-at-a-time CLI pipeline: read, parse, classify and write one row
# object at a time. The columnar reader, mask checks and block writer of
# ``sgpv.cli`` and ``sgpv._table`` must give the same bytes, exit codes and
# error lines.


class InputError(Exception):
    """A data error; the CLI prints it as ``sgpv: input error: <message>``."""


def _cell(value, spec: str):
    if isinstance(value, float):
        return format(value, spec)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return value


def write_csv(fh, columns: Sequence[str], rows, digits: int) -> None:
    """A table of row tuples as CSV, one ``_cell`` per value."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    spec = f".{min(digits, 800)}g"
    writer.writerows([_cell(v, spec) for v in row] for row in rows)


def csv_text(columns: Sequence[str], rows, digits: int = 6) -> str:
    buf = io.StringIO()
    write_csv(buf, columns, rows, digits)
    return buf.getvalue()


def json_text(columns: Sequence[str], rows, **extra) -> str:
    payload = {"rows": [dict(zip(columns, row)) for row in rows], **extra}
    return json.dumps(payload, indent=2, default=attrgetter("value")) + "\n"


def read_table(text: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header plus (line_number, stripped fields) rows; blank lines are skipped."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from exc
    numbered = [
        (lineno, [f.strip() for f in fields])
        for lineno, fields in enumerate(rows, start=1)
        if any(f.strip() for f in fields)
    ]
    if not numbered:
        raise InputError("empty input (a header row is required)")
    header = [h.strip().lower() for h in numbered[0][1]]
    return header, numbered[1:]


def _row_id(fields: list[str], idx: int, lineno: int) -> str:
    if idx >= len(fields):
        raise InputError(f"line {lineno}: missing value for 'id'")
    return fields[idx]


def _row_float(fields: list[str], idx: int, name: str, lineno: int) -> float:
    try:
        return float(fields[idx])
    except (IndexError, ValueError) as exc:
        raise InputError(f"line {lineno}: bad value for {name!r}") from exc


def _log10_interval(interval: ExtendedInterval) -> ExtendedInterval:
    if interval.lo <= 0:
        raise InvalidInterval(
            f"log10 rescaling needs strictly positive endpoints, got {interval}"
        )
    return ExtendedInterval(math.log10(interval.lo), math.log10(interval.hi))


def parse_compute_rows(
    header: list[str], rows, level: float, log10_mode: bool
) -> list[tuple[str, ExtendedInterval]]:
    """(id, interval) per row of a compute input; the first bad row raises."""
    cols = {name: i for i, name in enumerate(header)}
    if "lo" in cols and "hi" in cols:
        names, make_interval = ("lo", "hi"), ExtendedInterval
    elif "estimate" in cols and "se" in cols:
        names, make_interval = ("estimate", "se"), functools.partial(z_interval, level=level)
    else:
        raise InputError("input needs either lo,hi or estimate,se columns (id optional)")
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
                interval = _log10_interval(interval)
        except SgpvError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        out.append((row_id, interval))
    return out


def parse_interval_rows(header: list[str], rows, log10_mode: bool) -> list[StudyRow]:
    """Study rows of an interval-form screen input; the first bad row raises."""
    cols = {name: i for i, name in enumerate(header)}
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
                interval = _log10_interval(interval)
                estimate = math.log10(estimate) if estimate > 0 else estimate
        except SgpvError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        if p_value is not None and not 0.0 <= p_value <= 1.0:
            raise InputError(f"line {lineno}: p-value must lie in [0, 1], got {p_value!r}")
        out.append(StudyRow(row_id, estimate, interval, p_value))
    return out


def _row_count(fields: list[str], idx: int, name: str, lineno: int) -> int:
    value = _row_float(fields, idx, name, lineno)
    if not value.is_integer():
        raise InputError(f"line {lineno}: {name!r} must be a whole number, got {fields[idx]!r}")
    return int(value)


def parse_group_rows(header: list[str], rows, level: float, welch: bool) -> list[StudyRow]:
    """Study rows of a two-group screen input, one row at a time.

    Lines are read in order and the first failing line raises; within a
    line the first group's summary is checked before the second group is
    read. The t-test is the scalar ``two_sample_ci`` above.
    """
    cols = {name: i for i, name in enumerate(header)}
    groups = [[(cols[name + g], name + g) for name in ("n", "mean", "sd")] for g in "12"]
    out = []
    for lineno, fields in rows:
        try:
            row_id = _row_id(fields, cols["id"], lineno)
            summaries = []
            for group in groups:
                (n_col, n), (mean_col, mean), (sd_col, sd) = group
                try:
                    cells = (_row_count(fields, n_col, n, lineno),
                             _row_float(fields, mean_col, mean, lineno),
                             _row_float(fields, sd_col, sd, lineno))
                except InputError:
                    if summaries:
                        GroupSummary(*summaries[0])
                    raise
                summaries.append(cells)
            estimate, interval, p_value = two_sample_ci(
                GroupSummary(*summaries[0]), GroupSummary(*summaries[1]), level, welch)
        except SgpvError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        if not 0.0 <= p_value <= 1.0:
            raise InputError(f"line {lineno}: p-value must lie in [0, 1], got {p_value!r}")
        out.append(StudyRow(row_id, estimate, interval, p_value))
    return out


def parse_track_rows(header: list[str], rows) -> list[tuple[float, ExtendedInterval]]:
    """(t, interval) per row of a track input; the first bad row raises.

    Within a line: the cells, the interval, then a time point that is NaN
    or does not exceed the one before it, then an estimate covering the
    whole real line (the message ``second_gen_p`` raises for it).
    """
    cols = {name: i for i, name in enumerate(header)}
    out = []
    for lineno, fields in rows:
        t = _row_float(fields, cols["t"], "t", lineno)
        lo = _row_float(fields, cols["lo"], "lo", lineno)
        hi = _row_float(fields, cols["hi"], "hi", lineno)
        try:
            interval = ExtendedInterval(lo, hi)
            if math.isnan(t) or (out and not t > out[-1][0]):
                raise InvalidSeries("time points must be strictly increasing")
            if math.isinf(lo) and math.isinf(hi):
                second_gen_p(interval, NullSpec.symmetric(0.0, 1.0))
        except SgpvError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        out.append((t, interval))
    return out


COMPUTE_COLUMNS = ("id", "lo", "hi", "p_delta", "classification",
                   "correction_applied", "delta_gap", "flags")


def _verdict(interval: ExtendedInterval, h0: NullSpec) -> tuple:
    """(p_delta, classification, correction_applied, delta_gap); all None for the whole line."""
    if math.isinf(interval.lo) and math.isinf(interval.hi):
        return None, None, None, None
    result = second_gen_p(interval, h0)
    return result.p_delta, result.classification, result.correction_applied, result.delta_gap


def compute_output(
    text: str, h0: NullSpec, level: float = 0.95, log10_mode: bool = False,
    fmt: str = "csv", digits: int = 6,
) -> str:
    """What ``sgpv compute`` writes for the input ``text``; a data error raises InputError."""
    header, rows = read_table(text)
    rows = [
        (row_id, iv.lo, iv.hi, *verdict, "" if verdict[0] is not None else "unbounded_estimate")
        for row_id, iv in parse_compute_rows(header, rows, level, log10_mode)
        for verdict in [_verdict(iv, h0)]
    ]
    if fmt == "json":
        return json_text(COMPUTE_COLUMNS, rows)
    return csv_text(COMPUTE_COLUMNS, rows, digits)


def bh_qvalues(p_values: Sequence[float]) -> list[float]:
    """Benjamini-Hochberg q-values by a Python sort and a running minimum."""
    m = len(p_values)
    order = sorted(range(m), key=p_values.__getitem__)
    qs = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, m * p_values[idx] / rank)
        qs[idx] = running
    return qs


def ranked_indices(rows) -> list[int]:
    """Finding order of ScreenRow-like rows by a Python sort on
    (p_delta, -|delta_gap| at p_delta = 0, position); flagged rows are not ranked."""

    def sort_key(indexed):
        idx, row = indexed
        gap = abs(row.delta_gap) if (row.p_delta == 0.0 and row.delta_gap is not None) else 0.0
        return (row.p_delta, -gap, idx)

    classified = [(i, r) for i, r in enumerate(rows) if r.p_delta is not None]
    return [i for i, _ in sorted(classified, key=sort_key)]
