"""Seeded Monte Carlo oracle for the closed-form design probabilities.

Each replicate owns one Philox counter block (four 64-bit lanes), so the
draw for replicate i is a pure function of (seed, i): results are
bitwise identical under any chunking of the replicate range, which is
what makes parallel schedules deterministic. Normal variates come from
inverse-transform through the package's own quantile, tying simulation
accuracy to the tested kernel.

Draws, transforms and classification are vectorised per chunk:
``norm_quantile_array`` is the package's one AS 241 and ``p_delta_array``
its one p_delta rule, both elementwise, so the counts do not depend on
``chunks=``.

Outcome runs consume lane 0 per replicate; reliability runs consume lane
0 for the truth draw and lane 1 for the variate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._normal import norm_quantile_array
from .core import _count, p_delta_array
from .design import DesignConfig, OutcomeProbs
from .errors import InvalidConfig
from .reliability import PriorOdds

_MIN_UNIFORM = 2.0**-64  # keep the inverse transform finite at u == 0


def _check_integer(name: str, value) -> None:
    """Raise InvalidConfig unless ``value`` is an int or numpy integer (a float or bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: a design, a data-generating truth, size, seed."""

    design: DesignConfig
    theta: float
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise InvalidConfig(f"theta must be finite, got {self.theta!r}")
        _check_integer("replicates", self.replicates)
        _check_integer("seed", self.seed)
        if self.replicates < 1:
            raise InvalidConfig(f"replicates must be >= 1, got {self.replicates!r}")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "replicates", int(self.replicates))  # so the counts are ints
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SimResult:
    """Tri-state tallies with their empirical frequencies."""

    counts: tuple[int, int, int]  # (n_alt, n_null, n_inconclusive)
    empirical: OutcomeProbs


@dataclass(frozen=True)
class ReliabilitySimResult:
    """Empirical FDR/FCR; a rate is None when its conditioning event never occurred."""

    empirical_fdr: float | None
    empirical_fcr: float | None
    n_discoveries: int
    n_false_discoveries: int
    n_confirmations: int
    n_false_confirmations: int


def _uniform_lanes(seed: int, start: int, count: int) -> np.ndarray:
    """(count, 4) uniform lanes for replicates [start, start + count)."""
    bit_gen = np.random.Philox(key=seed)
    if start:
        bit_gen.advance(start)  # one advance step == one 4-lane counter block
    try:
        lanes = np.random.Generator(bit_gen).random((count, 4))
    except ValueError as exc:  # numpy refuses the shape before allocating anything
        raise InvalidConfig(f"cannot draw {count} replicates in one chunk: {exc}") from exc
    return np.maximum(lanes, _MIN_UNIFORM)


def _chunk_ranges(replicates: int, chunks: int) -> Iterator[tuple[int, int]]:
    _check_integer("chunks", chunks)
    if chunks < 1:
        raise InvalidConfig(f"chunks must be >= 1, got {chunks!r}")
    size = -(-replicates // chunks)  # ceil
    return ((start, min(size, replicates - start)) for start in range(0, replicates, size))


def _p_deltas(theta_hats: np.ndarray, design: DesignConfig) -> np.ndarray:
    """p_delta of each (1 - alpha) z-interval against the design's null."""
    half = design.estimate_half_width
    null = design.null_interval  # [theta0, theta0] when delta == 0: point null
    p, _, _ = p_delta_array(theta_hats - half, theta_hats + half, null)
    return p


def simulate_outcomes(cfg: SimConfig, chunks: int = 1) -> SimResult:
    """Empirical tri-state frequencies under theta_hat ~ N(theta, V / n).

    Per replicate: draw the estimate, form its (1 - alpha) z-interval,
    compute the second-generation p-value against the design's null
    interval, and tally the verdict. ``chunks`` only partitions the work;
    any value yields identical counts for the same seed.
    """
    se = cfg.design.se
    n_alt = n_null = 0
    for start, size in _chunk_ranges(cfg.replicates, chunks):
        u = _uniform_lanes(cfg.seed, start, size)[:, 0]
        p = _p_deltas(cfg.theta + se * norm_quantile_array(u), cfg.design)
        n_alt += _count(p == 0.0)
        n_null += _count(p == 1.0)
    counts = (n_alt, n_null, cfg.replicates - n_alt - n_null)
    return SimResult(counts, OutcomeProbs(*(c / cfg.replicates for c in counts)))


def simulate_reliability(
    cfg: SimConfig, odds: PriorOdds, theta1: float, chunks: int = 1
) -> ReliabilitySimResult:
    """Empirical FDR and FCR with truth drawn at prior odds r.

    Per replicate: truth is the alternative theta1 with probability
    r / (1 + r), otherwise theta0; the estimate is then simulated and
    classified as in :func:`simulate_outcomes`. The FDR is the fraction
    of p_delta = 0 results whose truth was theta0, the FCR the fraction
    of p_delta = 1 results whose truth was theta1; either is None when no
    such results occurred.
    """
    if not math.isfinite(theta1):
        raise InvalidConfig(f"theta1 must be finite, got {theta1!r}")
    design = cfg.design
    se = design.se
    p_alt_truth = odds.r / (1.0 + odds.r)
    discoveries = false_discoveries = confirmations = false_confirmations = 0
    for start, size in _chunk_ranges(cfg.replicates, chunks):
        lanes = _uniform_lanes(cfg.seed, start, size)
        truth_is_alt = lanes[:, 0] < p_alt_truth
        means = np.where(truth_is_alt, theta1, design.theta0)
        p = _p_deltas(means + se * norm_quantile_array(lanes[:, 1]), design)
        found = p == 0.0
        discoveries += _count(found)
        false_discoveries += _count(found & ~truth_is_alt)
        found = p == 1.0
        confirmations += _count(found)
        false_confirmations += _count(found & truth_is_alt)
    fdr = false_discoveries / discoveries if discoveries else None
    fcr = false_confirmations / confirmations if confirmations else None
    return ReliabilitySimResult(fdr, fcr, discoveries, false_discoveries, confirmations,
                                false_confirmations)
