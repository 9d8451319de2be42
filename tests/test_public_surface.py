"""The names ``sgpv`` exports: a sorted list without duplicates, each one
resolving, and none of the record-shaped screen API the columns replaced."""

import sgpv
import sgpv.screening

PUBLIC = [
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

REMOVED = ("StudyRow", "ScreenRow", "TrackPoint", "batch_sgpv", "pointwise_track",
           "rank_findings")


def test_all_is_the_sorted_public_list():
    assert PUBLIC == sorted(set(PUBLIC))
    assert sgpv.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in sgpv.__all__:
        assert getattr(sgpv, name) is not None, name


def test_record_shaped_screen_api_is_gone():
    for name in REMOVED:
        assert not hasattr(sgpv, name), name
        assert not hasattr(sgpv.screening, name), name
