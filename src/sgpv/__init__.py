"""Second-generation p-values over interval estimates and interval nulls.

Library surface: extended-real interval arithmetic (:mod:`sgpv.intervals`),
the p-value itself with delta-gap ranking (:mod:`sgpv.core`), closed-form
design frequency properties (:mod:`sgpv.design`), false discovery and
confirmation rates (:mod:`sgpv.reliability`), batch screening
(:mod:`sgpv.screening`), and a seeded Monte Carlo oracle
(:mod:`sgpv.simulate`). The ``sgpv`` command line tool fronts all of it.
"""

from . import errors
from ._normal import norm_cdf as std_normal_cdf, norm_quantile as std_normal_quantile
from .core import (
    Classification,
    NullSpec,
    SgpvResult,
    classify,
    delta_gap,
    max_p_over_null,
    round_half_away,
    second_gen_p,
    traditional_p,
)
from .design import (
    DesignConfig,
    OutcomeProbs,
    correction_trigger_power,
    outcome_probs,
    outcome_probs_array,
    prob_alt,
    prob_inconclusive,
    prob_null,
    required_interval_ratio,
)
from .intervals import ExtendedInterval, intersect, length, truncate, z_interval
from .reliability import (
    PriorOdds,
    classical_beta,
    classical_power,
    fcr_sgpv,
    fdr_sgpv,
    fdr_test,
    fnr_test,
    reliability_rates_array,
)
from .screening import (
    FOLD_CHANGE_NULL,
    CrossTab,
    GroupSummary,
    ScreenReport,
    ScreenSummary,
    attach_adjustments,
    bh_qvalues,
    bonferroni_flags,
    cross_tab,
    log10_interval,
    ranked_indices,
    screen_intervals,
    track_arrays,
    two_sample_ci,
)
from .simulate import (
    ReliabilitySimResult,
    SimConfig,
    SimResult,
    simulate_outcomes,
    simulate_reliability,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CrossTab",
    "DesignConfig",
    "ExtendedInterval",
    "FOLD_CHANGE_NULL",
    "GroupSummary",
    "NullSpec",
    "OutcomeProbs",
    "PriorOdds",
    "ReliabilitySimResult",
    "ScreenReport",
    "ScreenSummary",
    "SgpvResult",
    "SimConfig",
    "SimResult",
    "attach_adjustments",
    "bh_qvalues",
    "bonferroni_flags",
    "classical_beta",
    "classical_power",
    "classify",
    "correction_trigger_power",
    "cross_tab",
    "delta_gap",
    "errors",
    "fcr_sgpv",
    "fdr_sgpv",
    "fdr_test",
    "fnr_test",
    "intersect",
    "length",
    "log10_interval",
    "max_p_over_null",
    "outcome_probs",
    "outcome_probs_array",
    "prob_alt",
    "prob_inconclusive",
    "prob_null",
    "ranked_indices",
    "reliability_rates_array",
    "required_interval_ratio",
    "round_half_away",
    "screen_intervals",
    "second_gen_p",
    "simulate_outcomes",
    "simulate_reliability",
    "std_normal_cdf",
    "std_normal_quantile",
    "track_arrays",
    "traditional_p",
    "truncate",
    "two_sample_ci",
    "z_interval",
]
