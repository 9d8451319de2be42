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

``reliability_rates_array`` runs the outcome kernel at theta0, over the grid
and over the grid at delta = 0 (the z-test: power P(p_delta = 0), beta
P(0 < p_delta < 1)); the scalar rates are one-row views, 90-280 us a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import _table
from .design import DesignConfig, _outcome_columns, prob_alt, prob_inconclusive
from .errors import DegenerateDesign, InvalidOdds, InvalidSeries, check_probability


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


def _rates(theta1: np.ndarray, cfg: DesignConfig, odds: PriorOdds) -> tuple:
    """The four rate columns, unchecked."""
    alt0, null0, _ = _outcome_columns(np.array([cfg.theta0]), cfg)
    alt1, null1, _ = _outcome_columns(theta1, cfg)
    beta = _outcome_columns(theta1, _point_null(cfg))[2]
    with np.errstate(all="ignore"):
        fdr = 1.0 / (1.0 + alt1 / alt0 * odds.r)
        if cfg.delta <= cfg.estimate_half_width:  # no confirmations: undefined
            fcr = np.full(theta1.shape, None, dtype=object)
        else:  # 0 in the limit where the alternative's nesting probability vanishes
            fcr = np.where(null1 <= 0.0, 0.0, 1.0 / (1.0 + null0 / null1 / odds.r))
    return (fdr, fcr, *_test_rates(odds, cfg.alpha, beta))


def reliability_rates_array(theta1: np.ndarray, cfg: DesignConfig, odds: PriorOdds) -> tuple:
    """(fdr_sgpv, fcr_sgpv, fdr_test, fnr_test) over an array of alternatives.

    fcr_sgpv is all None when the gate is closed. Raises DegenerateDesign
    when P(p_delta = 0 | theta0) underflows to zero.
    """
    if prob_alt(cfg.theta0, cfg) <= 0.0:
        raise DegenerateDesign(
            "P(p_delta = 0 | theta0) underflowed to zero; the Bayes ratio "
            "is undefined at this design"
        )
    return _rates(np.asarray(theta1, dtype=float), cfg, odds)


def fdr_sgpv(theta1: float, cfg: DesignConfig, odds: PriorOdds) -> float:
    """False discovery rate of p_delta = 0 against the alternative theta1."""
    return reliability_rates_array(np.array([theta1], dtype=float), cfg, odds)[0].item()


def fcr_sgpv(theta1: float, cfg: DesignConfig, odds: PriorOdds) -> float | None:
    """False confirmation rate of p_delta = 1, or None when undefined.

    None signals that the interval estimate is too wide to ever nest in
    the null interval, so confirmation events cannot occur.
    """
    return _rates(np.array([theta1], dtype=float), cfg, odds)[1].item()


def fdr_test(odds: PriorOdds, alpha: float, beta: float) -> float:
    """False discovery rate of a classical test: [1 + r(1 - beta)/alpha]^-1."""
    check_probability("alpha", alpha)
    check_probability("beta", beta)
    return float(_test_rates(odds, alpha, np.float64(beta))[0])


def fnr_test(odds: PriorOdds, alpha: float, beta: float) -> float:
    """False non-discovery rate of a classical test: [1 + (1 - alpha)/(beta r)]^-1."""
    check_probability("alpha", alpha)
    check_probability("beta", beta)
    return float(_test_rates(odds, alpha, np.float64(beta))[1])


def _test_rates(odds: PriorOdds, alpha: float, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fdr_test, fnr_test) elementwise, defined down to beta = 0.

    As beta -> 0, fdr_test -> [1 + r/alpha]^-1 and fnr_test -> 0; the
    formulas give both as they stand, fnr_test through (1 - alpha)/0 = inf
    once beta * r underflows to zero.
    """
    with np.errstate(all="ignore"):
        fdr = 1.0 / (1.0 + odds.r * (1.0 - beta) / alpha)
        return fdr, 1.0 / (1.0 + (1.0 - alpha) / (beta * odds.r))


def _point_null(cfg: DesignConfig) -> DesignConfig:
    point = replace(cfg, delta=0.0)
    vars(point)["z_crit"] = cfg.z_crit  # the same alpha gives the same z
    return point


def classical_power(theta1: float, cfg: DesignConfig) -> float:
    """Two-sided z-test power at theta1 under the same (n, V, alpha)."""
    return prob_alt(theta1, _point_null(cfg))


def classical_beta(theta1: float, cfg: DesignConfig) -> float:
    """Type II rate of the two-sided z-test, evaluated tail-stably."""
    return prob_inconclusive(theta1, _point_null(cfg))


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
    columns = (c.tolist() for c in reliability_rates_array(theta1_grid, cfg, odds))
    return list(map(ReliabilityPoint, theta1_grid, *columns))


def reliability_curve_csv(rows: Sequence[ReliabilityPoint], digits: int = 6) -> str:
    """Serialize a reliability curve as CSV; an undefined FCR is an empty field."""
    values = {name: [getattr(r, name) for r in rows] for name in RELIABILITY_CURVE_COLUMNS}
    columns = [_table.floats(name, v, [x is None for x in v]) for name, v in values.items()]
    return _table.csv_text(columns, digits)
