"""Closed-form operating characteristics under a normal sampling model.

For an estimator with ``sqrt(n) * (theta_hat - theta) ~ N(0, V)``, the
(1 - alpha) z-interval either clears the null interval entirely
(p_delta = 0), nests inside it (p_delta = 1), or straddles a boundary
(inconclusive). With se = sqrt(V / n), z the upper alpha/2 normal
quantile, a = (theta0 - delta - theta) / se and b = (theta0 + delta -
theta) / se:

    P(p_delta = 0) = Phi(a - z) + Phi(-b - z)
    P(p_delta = 1) = Phi(b - z) - Phi(a + z)    if delta > z * se, else 0
    P(0 < p_delta < 1) = the complementary mass, evaluated directly

Nesting is geometrically impossible unless the interval estimate is
narrower than the null interval, hence the gate ``delta > z * se``; at
exact equality the nesting event has probability zero and the value is 0.

Note that V is the variance of the *scaled* estimator (the sqrt(n)
convention), so the standard error of theta_hat is sqrt(V / n), not
sqrt(V).

The array kernel ``outcome_probs_array`` computes se and z once and each Phi
term as one erfc pass over the theta column. ``prob_alt``, ``prob_null``,
``prob_inconclusive`` and ``outcome_probs`` are one-row views of it: about
90 us a call, so a curve belongs in the kernel or ``emit_power_curve``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _normal, _table
# The public names of the normal kernel (Phi and its AS 241 inverse).
from ._normal import norm_cdf as std_normal_cdf, norm_quantile as std_normal_quantile  # noqa: F401
from .errors import (
    InvalidInterval,
    InvalidProbability,
    InvalidProportion,
    InvalidScale,
    InvalidSeries,
    check_probability,
)
from .intervals import ExtendedInterval

_PARTITION_TOL = 1e-10


@dataclass(frozen=True)
class DesignConfig:
    """Design parameters for the normal model.

    delta may be zero only to recover classical point-null behavior;
    variance is V in the sqrt(n)-scaled convention (se = sqrt(V / n)).
    """

    theta0: float
    delta: float
    n: float
    variance: float
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta0):
            raise InvalidInterval("theta0 must be finite")
        if not (self.delta >= 0 and math.isfinite(self.delta)):
            raise InvalidInterval(f"delta must be >= 0, got {self.delta!r}")
        if not (self.n > 0 and math.isfinite(self.n)):
            raise InvalidScale(f"sample size must be positive, got {self.n!r}")
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise InvalidScale(f"variance must be positive, got {self.variance!r}")
        check_probability("alpha", self.alpha)
        if not 0.0 < self.se < math.inf:
            how = "underflows to 0" if self.se == 0.0 else "overflows"
            raise InvalidScale(f"the standard error sqrt(variance / n) {how}")

    @property
    def se(self) -> float:
        return math.sqrt(self.variance / self.n)

    @functools.cached_property  # a one-row AS 241 run costs about 90 us
    def z_crit(self) -> float:
        return _normal.norm_quantile(1.0 - 0.5 * self.alpha)

    @property
    def estimate_half_width(self) -> float:
        """z_crit * se: the (1 - alpha) z-interval is the estimate -/+ this."""
        return self.z_crit * self.se

    @property
    def null_interval(self) -> ExtendedInterval:
        return ExtendedInterval(self.theta0 - self.delta, self.theta0 + self.delta)


@dataclass(frozen=True)
class OutcomeProbs:
    """Probabilities of the three outcomes; they must partition unity."""

    p_alt: float
    p_null: float
    p_inconclusive: float

    def __post_init__(self) -> None:
        for name in ("p_alt", "p_null", "p_inconclusive"):
            p = getattr(self, name)
            if math.isnan(p) or not 0.0 <= p <= 1.0:
                raise InvalidProportion(f"{name} must lie in [0, 1], got {p!r}")
        total = self.p_alt + self.p_null + self.p_inconclusive
        if abs(total - 1.0) > _PARTITION_TOL:
            raise InvalidProportion(f"outcome probabilities sum to {total!r}, not 1")


def _cdf_diff(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Phi(upper) - Phi(lower) without upper-tail cancellation; 0 where not positive."""
    phi, flip = _normal.norm_cdf_array, upper + lower > 0.0
    value = phi(np.where(flip, -lower, upper)) - phi(np.where(flip, -upper, lower))
    return np.where((upper > lower) & (value > 0.0), value, 0.0)


def _outcome_columns(theta: np.ndarray, cfg: DesignConfig) -> tuple[np.ndarray, ...]:
    """(p_alt, p_null, p_inconclusive) over a float array, unchecked."""
    se, z = cfg.se, cfg.z_crit
    with np.errstate(all="ignore"):  # 1e308 / se -> inf and inf + -inf -> NaN are handled
        a = (cfg.theta0 - cfg.delta - theta) / se
        b = (cfg.theta0 + cfg.delta - theta) / se
        p_alt = _normal.norm_cdf_array(a - z) + _normal.norm_cdf_array(-b - z)
        not_alt = _cdf_diff(b + z, a - z)  # 1 - p_alt by tail symmetry
        if cfg.delta <= cfg.estimate_half_width:  # nesting is impossible
            return p_alt, np.zeros_like(p_alt), not_alt
        p_null = _cdf_diff(b - z, a + z)
        rest = not_alt - p_null
        return p_alt, p_null, np.where(rest > 0.0, rest, 0.0)


def outcome_probs_array(theta: np.ndarray, cfg: DesignConfig) -> tuple[np.ndarray, ...]:
    """(p_alt, p_null, p_inconclusive) over an array of true values theta.

    The first point that fails the ``OutcomeProbs`` range or partition
    check raises that check's InvalidProportion.
    """
    columns = _outcome_columns(np.asarray(theta, dtype=float), cfg)
    bad = np.abs(sum(columns) - 1.0) > _PARTITION_TOL
    for p in columns:
        bad |= ~((p >= 0.0) & (p <= 1.0))
    if bad.any():  # the first failing point raises its own error
        OutcomeProbs(*(p[bad.argmax()].item() for p in columns))
    return columns


def _one_row(theta: float, cfg: DesignConfig) -> list[float]:
    return [p.item() for p in _outcome_columns(np.array([theta], dtype=float), cfg)]


def prob_alt(theta: float, cfg: DesignConfig) -> float:
    """P(p_delta = 0 | theta): the interval estimate clears the null interval.

    Plays the role of power; inside the null interval it is the error
    rate, bounded above by alpha and vanishing with n in the interior.
    """
    return _one_row(theta, cfg)[0]


def prob_null(theta: float, cfg: DesignConfig) -> float:
    """P(p_delta = 1 | theta): the interval estimate nests inside the null.

    Exactly zero when delta <= z * se (including equality), where nesting
    is impossible.
    """
    return _one_row(theta, cfg)[1]


def prob_inconclusive(theta: float, cfg: DesignConfig) -> float:
    """P(0 < p_delta < 1 | theta): the interval straddles a null boundary."""
    return _one_row(theta, cfg)[2]


def outcome_probs(theta: float, cfg: DesignConfig) -> OutcomeProbs:
    """Bundle the three outcome probabilities; they sum to one."""
    return OutcomeProbs(*_one_row(theta, cfg))


def required_interval_ratio(alpha: float, power: float) -> float:
    """Width ratio |I| / |H0| implied by a two-sided design.

    For a design powered at ``power`` to detect the smallest meaningful
    effect, the interval estimate width relative to the null interval is
    z_{1-alpha/2} / (z_{1-alpha/2} + z_{power}): equal widths at 50%
    power, 0.7 at 80%, 0.6 at 90% (alpha = 0.05). A power of alpha/2 or
    less gives no positive ratio and is rejected.
    """
    check_probability("alpha", alpha)
    check_probability("power", power)
    z_a = _normal.norm_quantile(1.0 - 0.5 * alpha)
    z_sum = z_a + _normal.norm_quantile(power)
    if not z_sum > 0.0:
        raise InvalidProbability(f"power must exceed alpha/2 = {0.5 * alpha!r}, got {power!r}")
    return z_a / z_sum


def correction_trigger_power(alpha: float) -> float:
    """Power below which the estimate grows wider than twice the null.

    Solves required_interval_ratio(alpha, power) = 2; about 16% at
    alpha = 0.05. Designs powered above this level never trigger the
    small-sample guard.
    """
    check_probability("alpha", alpha)
    return _normal.norm_cdf(-0.5 * _normal.norm_quantile(1.0 - 0.5 * alpha))


POWER_CURVE_COLUMNS = ("theta", "p_alt", "p_null", "p_inconclusive")


@dataclass(frozen=True)
class PowerCurvePoint:
    theta: float
    p_alt: float
    p_null: float
    p_inconclusive: float


def emit_power_curve(
    cfg: DesignConfig, theta_grid: Sequence[float]
) -> list[PowerCurvePoint]:
    """Outcome probabilities over a grid of true hypotheses, in grid order."""
    if len(theta_grid) == 0:
        raise InvalidSeries("theta grid is empty")
    columns = (p.tolist() for p in outcome_probs_array(theta_grid, cfg))
    return list(map(PowerCurvePoint, theta_grid, *columns))


def power_curve_csv(rows: Sequence[PowerCurvePoint], digits: int = 6) -> str:
    """Serialize a power curve as CSV (header theta,p_alt,p_null,p_inconclusive)."""
    columns = [_table.floats(name, [getattr(r, name) for r in rows])
               for name in POWER_CURVE_COLUMNS]
    return _table.csv_text(columns, digits)
