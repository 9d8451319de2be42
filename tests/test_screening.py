"""Batch screening: t intervals, adjustments, cross-tabs, tracks, ranking."""

import math

import numpy as np
import pytest

from oracles import t_cdf_oracle, t_quantile_oracle
from sgpv import (
    Classification,
    ExtendedInterval,
    FOLD_CHANGE_NULL,
    GroupSummary,
    NullSpec,
    StudyRow,
    attach_adjustments,
    batch_sgpv,
    bh_qvalues,
    bonferroni_flags,
    cross_tab,
    log10_interval,
    pointwise_track,
    rank_findings,
    ranked_indices,
    second_gen_p,
    two_sample_ci,
)
from sgpv.errors import (
    InvalidInterval,
    InvalidProbability,
    InvalidSeries,
    InvalidSummary,
    MissingComparator,
    UnboundedEstimate,
)

SURVIVAL_NULL = NullSpec.symmetric(0.0, 0.05)


def interval_row(row_id, lo, hi, p=None):
    return StudyRow(row_id, 0.5 * (lo + hi), ExtendedInterval(lo, hi), p)


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
    def test_hazard_ratio_row(self):
        report = batch_sgpv(
            [interval_row("cox", 1.23, 2.36)], NullSpec.from_interval(0.9, 1.1)
        )
        assert report.rows[0].p_delta == 0.0
        assert report.rows[0].classification is Classification.ALTERNATIVE_COMPATIBLE

    def test_trivial_fold_change_gene(self):
        # fold-change CI inside (1/2, 2) once mapped to log10
        interval = log10_interval(ExtendedInterval(1.36, 1.94))
        report = batch_sgpv(
            [StudyRow("gene350", 0.2, interval)], FOLD_CHANGE_NULL
        )
        assert report.rows[0].p_delta == 1.0

    def test_meaningful_fold_change_gene(self):
        interval = log10_interval(ExtendedInterval(2.02, 29.74))
        report = batch_sgpv(
            [StudyRow("gene6345", 1.0, interval)], FOLD_CHANGE_NULL
        )
        assert report.rows[0].p_delta == 0.0

    def test_unbounded_row_is_flagged_not_fatal(self):
        rows = [
            interval_row("ok", 0.0, 1.0),
            StudyRow("bad", 0.0, ExtendedInterval(-math.inf, math.inf)),
        ]
        report = batch_sgpv(rows, NullSpec.symmetric(0.0, 0.5))
        assert report.rows[1].flags == "unbounded_estimate"
        assert report.rows[1].p_delta is None
        assert report.summary.n_flagged == 1

    def test_empty_batch(self):
        report = batch_sgpv([], SURVIVAL_NULL)
        assert report.rows == ()
        assert report.summary.n_rows == 0

    def test_order_preserved_and_rowwise_independent(self):
        rng = np.random.default_rng(77)
        rows = []
        for k in range(40):
            lo = rng.uniform(-2, 2)
            rows.append(interval_row(f"r{k}", lo, lo + rng.uniform(0.01, 3)))
        h0 = NullSpec.symmetric(0.0, 0.4)
        report = batch_sgpv(rows, h0)
        assert [r.id for r in report.rows] == [r.id for r in rows]
        perm = list(rng.permutation(40))
        permuted = batch_sgpv([rows[i] for i in perm], h0)
        for out_row, src in zip(permuted.rows, perm):
            assert out_row == report.rows[src]

    def test_summary_counts_partition_rows(self):
        rng = np.random.default_rng(11)
        rows = []
        for k in range(60):
            lo = rng.uniform(-3, 3)
            rows.append(interval_row(f"g{k}", lo, lo + rng.uniform(0.01, 2)))
        report = batch_sgpv(rows, NullSpec.symmetric(0.0, 1.0))
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
        rows = [
            interval_row("a", 2.0, 3.0, p=0.001),
            interval_row("b", -0.2, 0.2, p=0.4),
            interval_row("c", 0.1, 2.0, p=0.02),
        ]
        report = attach_adjustments(batch_sgpv(rows, NullSpec.symmetric(0, 0.5)), 0.05)
        assert report.rows[0].p_bonferroni == pytest.approx(0.003)
        assert report.rows[1].p_bonferroni == pytest.approx(1.0)
        assert report.summary.n_bonferroni_significant == 1
        assert report.summary.n_raw_significant == 2

    @pytest.mark.parametrize("bad", [1.5, -0.2, math.nan])
    def test_library_rejects_a_p_value_off_the_unit_interval(self, bad):
        message = f"p-values must lie in \\[0, 1\\], got {bad!r}$"
        report = batch_sgpv([interval_row("a", 2.0, 3.0, p=0.01),
                             interval_row("b", 0.0, 1.0, p=bad)], NullSpec.symmetric(0, 0.5))
        for call in (lambda: bh_qvalues([0.01, bad]),
                     lambda: bonferroni_flags([0.01, bad], 0.05),
                     lambda: attach_adjustments(report, 0.05),
                     lambda: cross_tab(report, 0.05)):
            with pytest.raises(InvalidProbability, match=message):
                call()

    def test_attach_adjustments_needs_pvalues(self):
        report = batch_sgpv([interval_row("a", 0.0, 1.0)], SURVIVAL_NULL)
        with pytest.raises(MissingComparator):
            attach_adjustments(report, 0.05)


class TestCrossTab:
    def _report(self, entries, h0):
        rows = [interval_row(f"r{k}", lo, hi, p) for k, (lo, hi, p) in enumerate(entries)]
        return batch_sgpv(rows, h0)

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
        assert tab.total == 6

    def test_margins_match_summary(self):
        entries = [(1.0, 2.0, 1e-4), (0.0, 0.1, 0.3), (3.0, 4.0, 1e-6), (0.2, 1.2, 0.04)]
        report = self._report(entries, NullSpec.symmetric(0, 0.5))
        tab = cross_tab(report, 0.05)
        assert tab.sgpv_zero_total == report.summary.n_alternative
        assert tab.total == report.summary.n_rows

    def test_empty_report(self):
        tab = cross_tab(batch_sgpv([], SURVIVAL_NULL), 0.05)
        assert tab.total == 0

    def test_missing_pvalues_raise(self):
        report = batch_sgpv([interval_row("a", 0.0, 1.0)], SURVIVAL_NULL)
        with pytest.raises(MissingComparator):
            cross_tab(report, 0.05)

    def test_flagged_rows_count_toward_m(self):
        rows = [
            interval_row("hit", 1.5, 2.5, 0.03),
            StudyRow("wide", 0.0, ExtendedInterval(-math.inf, math.inf), 0.5),
        ]
        report = attach_adjustments(batch_sgpv(rows, NullSpec.symmetric(0, 1)), 0.05)
        tab = cross_tab(report, 0.05)
        assert report.summary.n_bonferroni_significant == 0
        assert tab.significant_total == 0
        assert tab.sgpv_zero_not_significant == 1
        assert tab.total == 1


class TestPointwiseTrack:
    def test_three_regimes(self):
        series = [
            (1.0, ExtendedInterval(-0.01, 0.01)),   # inside: compatible with null
            (2.0, ExtendedInterval(0.02, 0.10)),    # straddles: inconclusive
            (3.0, ExtendedInterval(0.07, 0.20)),    # clear of the zone
        ]
        points = pointwise_track(series, SURVIVAL_NULL)
        assert points[0].classification is Classification.NULL_COMPATIBLE
        assert points[1].classification is Classification.INCONCLUSIVE
        assert points[1].p_delta == pytest.approx(0.375)
        assert points[2].classification is Classification.ALTERNATIVE_COMPATIBLE

    def test_grey_level_only_for_inconclusive(self):
        series = [
            (1.0, ExtendedInterval(-0.01, 0.01)),
            (2.0, ExtendedInterval(0.02, 0.10)),
            (3.0, ExtendedInterval(0.07, 0.20)),
        ]
        points = pointwise_track(series, SURVIVAL_NULL)
        assert points[0].grey_level is None
        assert points[1].grey_level == pytest.approx(0.375)
        assert points[2].grey_level is None

    def test_single_point(self):
        points = pointwise_track([(0.0, ExtendedInterval(0.0, 0.01))], SURVIVAL_NULL)
        assert len(points) == 1

    def test_non_monotone_rejected(self):
        series = [(1.0, ExtendedInterval(0, 1)), (1.0, ExtendedInterval(0, 1))]
        with pytest.raises(InvalidSeries):
            pointwise_track(series, SURVIVAL_NULL)
        with pytest.raises(InvalidSeries):
            pointwise_track([], SURVIVAL_NULL)

    def test_whole_line_point_raises(self):
        series = [(1.0, ExtendedInterval(0, 1)), (2.0, ExtendedInterval(-math.inf, math.inf))]
        with pytest.raises(UnboundedEstimate, match="truncate"):
            pointwise_track(series, SURVIVAL_NULL)

    def test_nan_time_point_rejected(self):
        series = [(t, ExtendedInterval(0, 1)) for t in (2.0, math.nan, 1.0)]
        with pytest.raises(InvalidSeries):
            pointwise_track(series, SURVIVAL_NULL)


class TestRanking:
    def test_delta_gap_breaks_ties_among_discoveries(self):
        h0 = NullSpec.from_interval(-0.3, 0.3)
        rows = [
            interval_row("gene3252", 1.22, 1.64),
            interval_row("gene2288", 2.11, 2.87),
            interval_row("inconclusive", 0.1, 0.6),
        ]
        report = batch_sgpv(rows, h0)
        assert rank_findings(report) == ["gene2288", "gene3252", "inconclusive"]

    def test_discoveries_precede_everything(self):
        rng = np.random.default_rng(3)
        rows = []
        for k in range(50):
            lo = rng.uniform(-4, 4)
            rows.append(interval_row(f"x{k}", lo, lo + rng.uniform(0.01, 2)))
        report = batch_sgpv(rows, NullSpec.symmetric(0.0, 1.0))
        ranked = ranked_indices(report)
        ps = [report.rows[i].p_delta for i in ranked]
        boundary = sum(1 for p in ps if p == 0.0)
        assert all(p == 0.0 for p in ps[:boundary])
        assert all(p > 0.0 for p in ps[boundary:])
        assert sorted(ps) == pytest.approx(ps)

    def test_stability_for_equal_keys(self):
        h0 = NullSpec.symmetric(0.0, 0.5)
        rows = [
            interval_row("first", 0.0, 0.2),
            interval_row("second", -0.1, 0.1),  # same p_delta = 1
        ]
        report = batch_sgpv(rows, h0)
        assert rank_findings(report) == ["first", "second"]


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
