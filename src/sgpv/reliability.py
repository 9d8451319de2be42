"""Posterior error rates of second-generation p-values and classical tests.

The false discovery rate is P(truth null | p_delta = 0) and the false
confirmation rate is P(truth alternative | p_delta = 1). Both follow from
Bayes rule applied to the design probabilities with prior odds
r = P(H1) / P(H0), the null represented by the point null theta0 and the
alternative by a caller-supplied theta1:

    fdr = [1 + (P(p_delta=0 | theta1) / P(p_delta=0 | theta0)) * r]^-1
    fcr = [1 + (P(p_delta=1 | theta0) / P(p_delta=1 | theta1)) / r]^-1

The classical counterparts use the two-sided z-test's alpha and its Type
II rate beta at the same alternative:

    fdr_test = [1 + r (1 - beta) / alpha]^-1
    fnr_test = [1 + (1 - alpha) / (beta r)]^-1

As n grows, fdr and fcr vanish for alternatives outside the null interval,
while fdr_test can do no better than alpha / (alpha + r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import _table
from ._normal import norm_cdf
from .design import DesignConfig, _cdf_diff, prob_alt, prob_null
from .errors import (
    DegenerateDesign,
    InvalidOdds,
    InvalidProbability,
    InvalidSeries,
)


@dataclass(frozen=True)
class PriorOdds:
    """Prior odds r = P(H1) / P(H0) of a real effect."""

    r: float

    def __post_init__(self) -> None:
        if not (self.r > 0 and math.isfinite(self.r)):
            raise InvalidOdds(f"prior odds must be positive and finite, got {self.r!r}")


RELIABILITY_CURVE_COLUMNS = ("theta1", "fdr_sgpv", "fcr_sgpv", "fdr_test", "fnr_test")


@dataclass(frozen=True)
class ReliabilityPoint:
    """One grid row comparing sgpv rates with their test counterparts.

    fcr_sgpv is None when the design cannot produce p_delta = 1 at all
    (the nesting gate is closed), in which case the rate is undefined.
    """

    theta1: float
    fdr_sgpv: float
    fcr_sgpv: float | None
    fdr_test: float
    fnr_test: float


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


def fdr_test(odds: PriorOdds, alpha: float, beta: float) -> float:
    """False discovery rate of a classical test: [1 + r(1 - beta)/alpha]^-1."""
    _validate_rates(alpha, beta)
    return _test_rates(odds, alpha, beta)[0]


def fnr_test(odds: PriorOdds, alpha: float, beta: float) -> float:
    """False non-discovery rate of a classical test: [1 + (1 - alpha)/(beta r)]^-1."""
    _validate_rates(alpha, beta)
    return _test_rates(odds, alpha, beta)[1]


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


def _validate_rates(alpha: float, beta: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidProbability(f"alpha must be in (0, 1), got {alpha!r}")
    if not 0.0 < beta < 1.0:
        raise InvalidProbability(f"beta must be in (0, 1), got {beta!r}")


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


def reliability_curve_csv(rows: Sequence[ReliabilityPoint], digits: int = 6) -> str:
    """Serialize a reliability curve as CSV; an undefined FCR is an empty field."""
    return _table.csv_text(
        RELIABILITY_CURVE_COLUMNS, _table.table_rows(rows, RELIABILITY_CURVE_COLUMNS), digits
    )
