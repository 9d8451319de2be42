"""Batch screening: t intervals, adjustments, cross-tabs, tracks, ranking,
all through the column API (``screen_intervals``, ``track_arrays``,
``ranked_indices``)."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from oracles import t_cdf_oracle, t_quantile_oracle
from sgpv import (
    Classification,
    ExtendedInterval,
    FOLD_CHANGE_NULL,
    GroupSummary,
    NullSpec,
    attach_adjustments,
    bh_qvalues,
    bonferroni_flags,
    cross_tab,
    log10_interval,
    ranked_indices,
    screen_intervals,
    second_gen_p,
    track_arrays,
    two_sample_ci,
)
from sgpv.core import CLASSES, classify_codes
from sgpv.errors import (
    InvalidInterval,
    InvalidProbability,
    InvalidSeries,
    InvalidSummary,
    MissingComparator,
    UnboundedEstimate,
)

SURVIVAL_NULL = NullSpec.symmetric(0.0, 0.05)


def screen(entries, h0, ids=None):
    """The screen of (lo, hi) or (lo, hi, p-value) entries; ids r0, r1, ... unless given."""
    p_raw = [e[2] if len(e) > 2 else math.nan for e in entries]
    return screen_intervals(
        [f"r{k}" for k in range(len(entries))] if ids is None else ids,
        [e[0] for e in entries], [e[1] for e in entries],
        p_raw, [len(e) > 2 for e in entries], h0,
    )


def classes(p_delta):
    return [CLASSES[code] for code in classify_codes(p_delta).tolist()]


def ranked_ids(report):
    return [report.ids[i] for i in ranked_indices(report)]


class TestTwoSampleCi:
    def test_identical_groups(self):
        g = GroupSummary(12, 1.0, 0.8)
        est, interval, p = two_sample_ci(g, g)
        assert est == 0.0
        assert interval.lo == pytest.approx(-interval.hi)
        assert p == 1.0

    def test_against_quadrature_oracle_pooled(self):
        a = GroupSummary(10, 1.0, 1.0)
        b = GroupSummary(10, 0.0, 1.0)
        est, interval, p = two_sample_ci(a, b, 0.95)
        df = 18
        se = math.sqrt(((9 + 9) / 18) * (0.1 + 0.1))
        t_stat = est / se
        assert p == pytest.approx(2 * (1 - t_cdf_oracle(t_stat, df)), abs=1e-10)
        t_crit = t_quantile_oracle(0.975, df)
        assert interval.hi == pytest.approx(est + t_crit * se, abs=1e-9)
        assert interval.lo == pytest.approx(est - t_crit * se, abs=1e-9)

    def test_against_quadrature_oracle_welch(self):
        a = GroupSummary(8, 2.0, 1.5)
        b = GroupSummary(14, 0.5, 0.6)
        est, interval, p = two_sample_ci(a, b, 0.95, welch=True)
        va, vb = 1.5**2 / 8, 0.6**2 / 14
        se = math.sqrt(va + vb)
        df = (va + vb) ** 2 / (va**2 / 7 + vb**2 / 13)
        assert p == pytest.approx(2 * (1 - t_cdf_oracle(est / se, df)), abs=1e-10)
        assert interval.hi - interval.lo == pytest.approx(
            2 * t_quantile_oracle(0.975, df) * se, abs=1e-8
        )

    def test_scale_equivariance(self):
        a = GroupSummary(10, 1.0, 1.0)
        b = GroupSummary(10, 0.0, 1.0)
        _, narrow, p1 = two_sample_ci(a, b)
        a2 = GroupSummary(10, 1.0, 2.0)
        b2 = GroupSummary(10, 0.0, 2.0)
        _, wide, p2 = two_sample_ci(a2, b2)
        assert wide.hi - wide.lo == pytest.approx(2 * (narrow.hi - narrow.lo), rel=1e-12)
        # halving the t statistic must reproduce the second p-value
        se1 = (narrow.hi - narrow.lo)
        t1 = 1.0 / (se1 / (2 * t_quantile_oracle(0.975, 18)))
        assert p2 == pytest.approx(2 * (1 - t_cdf_oracle(t1 / 2, 18)), abs=1e-9)

    def test_rejects_bad_summaries(self):
        with pytest.raises(InvalidSummary):
            GroupSummary(1, 0.0, 1.0)
        with pytest.raises(InvalidSummary):
            GroupSummary(5, 0.0, 0.0)
        with pytest.raises(InvalidProbability):
            two_sample_ci(GroupSummary(5, 0, 1), GroupSummary(5, 0, 1), level=1.0)


class TestBatchSgpv:
    """A batch screen through ``screen_intervals``."""

    def test_hazard_ratio_row(self):
        report = screen([(1.23, 2.36)], NullSpec.from_interval(0.9, 1.1), ids=["cox"])
        assert report.p_delta[0] == 0.0
        assert classes(report.p_delta) == [Classification.ALTERNATIVE_COMPATIBLE]

    def test_trivial_fold_change_gene(self):
        # fold-change CI inside (1/2, 2) once mapped to log10
        interval = log10_interval(ExtendedInterval(1.36, 1.94))
        report = screen([(interval.lo, interval.hi)], FOLD_CHANGE_NULL, ids=["gene350"])
        assert report.p_delta[0] == 1.0

    def test_meaningful_fold_change_gene(self):
        interval = log10_interval(ExtendedInterval(2.02, 29.74))
        report = screen([(interval.lo, interval.hi)], FOLD_CHANGE_NULL, ids=["gene6345"])
        assert report.p_delta[0] == 0.0

    @pytest.mark.parametrize(
        "ids, lo, hi, p_raw, lengths",
        [(["a", "b"], [1, 2], [3], [0.1, 0.2], "ids 2, lo 2, hi 1, p_raw 2"),
         (["a"], [1, 2], [2, 3], [0.1, 0.2], "ids 1, lo 2, hi 2, p_raw 2"),
         (["a", "b"], [1, 2], [2, 3], [0.1], "ids 2, lo 2, hi 2, p_raw 1")],
        ids=["short-hi", "short-ids", "short-p-raw"],
    )
    def test_columns_of_different_lengths_raise(self, ids, lo, hi, p_raw, lengths):
        """A short column is neither broadcast nor read past its end."""
        with pytest.raises(InvalidSeries, match=f"got {lengths}, has_p_raw 2$"):
            screen_intervals(ids, lo, hi, p_raw, [True, True], NullSpec.symmetric(0, 0.5))

    def test_unbounded_row_is_flagged_not_fatal(self):
        report = screen([(0.0, 1.0), (-math.inf, math.inf)], NullSpec.symmetric(0.0, 0.5))
        assert report.flagged.tolist() == [False, True]
        assert math.isnan(report.p_delta[1])
        assert classes(report.p_delta)[1] is None
        assert report.summary.n_flagged == 1

    def test_empty_batch(self):
        report = screen([], SURVIVAL_NULL)
        assert report.ids == [] and report.p_delta.size == 0
        assert report.summary.n_rows == 0

    def test_order_preserved_and_rowwise_independent(self):
        rng = np.random.default_rng(77)
        entries = []
        for _ in range(40):
            lo = rng.uniform(-2, 2)
            entries.append((lo, lo + rng.uniform(0.01, 3)))
        h0 = NullSpec.symmetric(0.0, 0.4)
        report = screen(entries, h0)
        assert report.ids == [f"r{k}" for k in range(40)]
        perm = list(rng.permutation(40))
        permuted = screen([entries[i] for i in perm], h0, ids=[report.ids[i] for i in perm])
        for column in ("p_delta", "delta_gap"):
            np.testing.assert_array_equal(getattr(permuted, column),
                                          getattr(report, column)[perm])

    def test_summary_counts_partition_rows(self):
        rng = np.random.default_rng(11)
        entries = []
        for _ in range(60):
            lo = rng.uniform(-3, 3)
            entries.append((lo, lo + rng.uniform(0.01, 2)))
        report = screen(entries, NullSpec.symmetric(0.0, 1.0))
        s = report.summary
        assert s.n_alternative + s.n_null + s.n_inconclusive + s.n_flagged == s.n_rows

    def test_log_scale_agreement_on_definitive_rows(self):
        rng = np.random.default_rng(40)
        raw_null = NullSpec.from_interval(0.5, 2.0)
        for _ in range(300):
            lo = rng.uniform(0.05, 4.0)
            hi = lo + rng.uniform(0.01, 4.0)
            raw = second_gen_p(ExtendedInterval(lo, hi), raw_null)
            logged = second_gen_p(
                log10_interval(ExtendedInterval(lo, hi)), FOLD_CHANGE_NULL
            )
            assert (raw.p_delta == 0.0) == (logged.p_delta == 0.0)
            assert (raw.p_delta == 1.0) == (logged.p_delta == 1.0)


class TestAdjustments:
    def test_bonferroni_single_comparison(self):
        assert bonferroni_flags([0.03], 0.05) == [True]
        assert bonferroni_flags([0.07], 0.05) == [False]

    def test_bonferroni_threshold(self):
        assert bonferroni_flags([0.01, 0.02, 0.5], 0.05) == [True, False, False]

    def test_bonferroni_all_ones(self):
        assert bonferroni_flags([1.0, 1.0, 1.0], 0.05) == [False, False, False]

    def test_bonferroni_rejects_bad_p(self):
        assert bonferroni_flags([0.0, 0.5], 0.05) == [True, False]
        with pytest.raises(InvalidProbability):
            bonferroni_flags([0.5], 1.5)

    def test_bh_single(self):
        assert bh_qvalues([0.2]) == [0.2]

    def test_bh_two_values(self):
        assert bh_qvalues([0.01, 0.04]) == pytest.approx([0.02, 0.04])

    def test_bh_properties(self):
        rng = np.random.default_rng(13)
        ps = list(rng.uniform(1e-6, 1.0, 200))
        qs = bh_qvalues(ps)
        assert max(qs) <= 1.0
        for p, q in zip(ps, qs):
            assert q >= p - 1e-15
        order = np.argsort(ps)
        sorted_qs = [qs[i] for i in order]
        assert all(b >= a for a, b in zip(sorted_qs, sorted_qs[1:]))

    def test_bh_input_order_restored(self):
        ps = [0.9, 0.001, 0.5, 0.02]
        qs = bh_qvalues(ps)
        resorted = bh_qvalues(sorted(ps))
        assert sorted(qs) == pytest.approx(resorted)

    def test_attach_adjustments_full_report(self):
        entries = [(2.0, 3.0, 0.001), (-0.2, 0.2, 0.4), (0.1, 2.0, 0.02)]
        report = attach_adjustments(screen(entries, NullSpec.symmetric(0, 0.5)), 0.05)
        assert report.p_bonferroni[0] == pytest.approx(0.003)
        assert report.p_bonferroni[1] == pytest.approx(1.0)
        assert report.summary.n_bonferroni_significant == 1
        assert report.summary.n_raw_significant == 2

    @pytest.mark.parametrize("bad", [1.5, -0.2, math.nan])
    def test_library_rejects_a_p_value_off_the_unit_interval(self, bad):
        message = f"p-values must lie in \\[0, 1\\], got {bad!r}$"
        report = screen([(2.0, 3.0, 0.01), (0.0, 1.0, bad)], NullSpec.symmetric(0, 0.5))
        for call in (lambda: bh_qvalues([0.01, bad]),
                     lambda: bonferroni_flags([0.01, bad], 0.05),
                     lambda: attach_adjustments(report, 0.05),
                     lambda: cross_tab(report, 0.05)):
            with pytest.raises(InvalidProbability, match=message):
                call()

    @pytest.mark.parametrize("call, quoted", [
        (lambda: bh_qvalues([None]), "None"),
        (lambda: bh_qvalues([0.5, 2]), "2"),
        (lambda: bonferroni_flags([1.5], 0.05), "1.5"),
    ])
    def test_error_quotes_the_callers_own_value(self, call, quoted):
        message = f"^p-values must lie in \\[0, 1\\], got {quoted}$"
        with pytest.raises(InvalidProbability, match=message):
            call()

    def test_attach_adjustments_needs_pvalues(self):
        report = screen([(0.0, 1.0)], SURVIVAL_NULL)
        with pytest.raises(MissingComparator):
            attach_adjustments(report, 0.05)


class TestCrossTab:
    def _report(self, entries, h0):
        return screen(entries, h0)

    def test_all_discoveries_and_significant(self):
        entries = [(2.0, 3.0, 1e-6), (4.0, 5.0, 1e-7)]
        tab = cross_tab(self._report(entries, NullSpec.symmetric(0, 0.5)), 0.05)
        assert tab.sgpv_zero_significant == 2
        assert tab.sgpv_positive_significant == 0
        assert tab.sgpv_zero_not_significant == 0
        assert tab.sgpv_positive_not_significant == 0

    def test_six_row_fixture_against_enumeration(self):
        h0 = NullSpec.symmetric(0.0, 0.5)
        alpha = 0.05
        entries = [
            (1.0, 2.0, 1e-4),    # p_delta 0, significant (threshold 0.05/6)
            (0.9, 1.4, 0.02),    # p_delta 0, not significant
            (-0.2, 0.3, 1e-3),   # overlap, significant
            (-0.1, 0.2, 0.6),    # overlap, not significant
            (0.6, 3.0, 0.004),   # p_delta 0, significant
            (0.2, 0.8, 0.03),    # overlap, not significant
        ]
        report = self._report(entries, h0)
        tab = cross_tab(report, alpha)
        expect = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
        for (lo, hi, p) in entries:
            zero = second_gen_p(ExtendedInterval(lo, hi), h0).p_delta == 0.0
            expect[(zero, p < alpha / len(entries))] += 1
        assert tab.sgpv_zero_significant == expect[(True, True)]
        assert tab.sgpv_zero_not_significant == expect[(True, False)]
        assert tab.sgpv_positive_significant == expect[(False, True)]
        assert tab.sgpv_positive_not_significant == expect[(False, False)]
        assert sum(astuple(tab)) == 6

    def test_margins_match_summary(self):
        entries = [(1.0, 2.0, 1e-4), (0.0, 0.1, 0.3), (3.0, 4.0, 1e-6), (0.2, 1.2, 0.04)]
        report = self._report(entries, NullSpec.symmetric(0, 0.5))
        tab = cross_tab(report, 0.05)
        assert tab.sgpv_zero_significant + tab.sgpv_zero_not_significant == \
            report.summary.n_alternative
        assert sum(astuple(tab)) == report.summary.n_rows

    def test_empty_report(self):
        tab = cross_tab(screen([], SURVIVAL_NULL), 0.05)
        assert sum(astuple(tab)) == 0

    def test_missing_pvalues_raise(self):
        report = screen([(0.0, 1.0)], SURVIVAL_NULL)
        with pytest.raises(MissingComparator):
            cross_tab(report, 0.05)

    def test_flagged_rows_count_toward_m(self):
        entries = [(1.5, 2.5, 0.03), (-math.inf, math.inf, 0.5)]
        report = attach_adjustments(screen(entries, NullSpec.symmetric(0, 1)), 0.05)
        tab = cross_tab(report, 0.05)
        assert report.summary.n_bonferroni_significant == 0
        assert tab.sgpv_zero_significant + tab.sgpv_positive_significant == 0
        assert tab.sgpv_zero_not_significant == 1
        assert sum(astuple(tab)) == 1


def track(series, h0):
    """``track_arrays`` of (t, lo, hi) points."""
    return track_arrays(*zip(*series), h0) if series else track_arrays([], [], [], h0)


class TestPointwiseTrack:
    """A pointwise track through ``track_arrays``."""

    def test_three_regimes(self):
        series = [
            (1.0, -0.01, 0.01),   # inside: compatible with null
            (2.0, 0.02, 0.10),    # straddles: inconclusive
            (3.0, 0.07, 0.20),    # clear of the zone
        ]
        p, code = track(series, SURVIVAL_NULL)
        assert [CLASSES[c] for c in code.tolist()] == [
            Classification.NULL_COMPATIBLE,
            Classification.INCONCLUSIVE,
            Classification.ALTERNATIVE_COMPATIBLE,
        ]
        assert p[1] == pytest.approx(0.375)

    def test_single_point(self):
        p, code = track([(0.0, 0.0, 0.01)], SURVIVAL_NULL)
        assert len(p) == len(code) == 1

    def test_non_monotone_rejected(self):
        with pytest.raises(InvalidSeries):
            track([(1.0, 0, 1), (1.0, 0, 1)], SURVIVAL_NULL)
        with pytest.raises(InvalidSeries):
            track([], SURVIVAL_NULL)

    @pytest.mark.parametrize(
        "t, lo, hi, lengths",
        [([1.0, 2.0], [1, 2, 3], [2, 3, 4], "t 2, lo 3, hi 3"),
         ([1.0, 2.0], [1.0], [2.0, 3.0], "t 2, lo 1, hi 2")],
        ids=["long-bounds", "short-lo"],
    )
    def test_columns_of_different_lengths_raise(self, t, lo, hi, lengths):
        with pytest.raises(InvalidSeries, match=f"one entry per row, got {lengths}$"):
            track_arrays(t, lo, hi, SURVIVAL_NULL)

    def test_whole_line_point_raises(self):
        with pytest.raises(UnboundedEstimate, match="truncate"):
            track([(1.0, 0, 1), (2.0, -math.inf, math.inf)], SURVIVAL_NULL)

    def test_nan_time_point_rejected(self):
        with pytest.raises(InvalidSeries):
            track([(t, 0, 1) for t in (2.0, math.nan, 1.0)], SURVIVAL_NULL)


class TestRanking:
    def test_delta_gap_breaks_ties_among_discoveries(self):
        h0 = NullSpec.from_interval(-0.3, 0.3)
        report = screen([(1.22, 1.64), (2.11, 2.87), (0.1, 0.6)], h0,
                        ids=["gene3252", "gene2288", "inconclusive"])
        assert ranked_ids(report) == ["gene2288", "gene3252", "inconclusive"]

    def test_discoveries_precede_everything(self):
        rng = np.random.default_rng(3)
        entries = []
        for _ in range(50):
            lo = rng.uniform(-4, 4)
            entries.append((lo, lo + rng.uniform(0.01, 2)))
        report = screen(entries, NullSpec.symmetric(0.0, 1.0))
        ps = report.p_delta[ranked_indices(report)].tolist()
        boundary = sum(1 for p in ps if p == 0.0)
        assert all(p == 0.0 for p in ps[:boundary])
        assert all(p > 0.0 for p in ps[boundary:])
        assert sorted(ps) == pytest.approx(ps)

    def test_stability_for_equal_keys(self):
        h0 = NullSpec.symmetric(0.0, 0.5)
        report = screen([(0.0, 0.2), (-0.1, 0.1)], h0,  # same p_delta = 1
                        ids=["first", "second"])
        assert ranked_ids(report) == ["first", "second"]


class TestLog10Interval:
    def test_mapping(self):
        got = log10_interval(ExtendedInterval(1.36, 1.94))
        assert got.lo == pytest.approx(math.log10(1.36))
        assert got.hi == pytest.approx(math.log10(1.94))

    def test_infinite_upper_end(self):
        got = log10_interval(ExtendedInterval(2.0, math.inf))
        assert got.hi == math.inf

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInterval):
            log10_interval(ExtendedInterval(0.0, 1.0))
        with pytest.raises(InvalidInterval):
            log10_interval(ExtendedInterval(-1.0, 1.0))
