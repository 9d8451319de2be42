"""The p-value engine: worked fixtures, tri-state rules, invariants."""

import math

import numpy as np
import pytest

from sgpv import (
    Classification,
    ExtendedInterval,
    NullSpec,
    classify,
    delta_gap,
    max_p_over_null,
    round_half_away,
    second_gen_p,
    traditional_p,
    z_interval,
)
from oracles import _p_delta
from sgpv.errors import (
    InvalidInterval,
    InvalidProportion,
    InvalidScale,
    UnboundedEstimate,
)

INF = math.inf
BP_NULL = NullSpec.symmetric(146.0, 2.0)  # blood-pressure indifference zone


class TestNullSpec:
    def test_symmetric(self):
        assert BP_NULL.interval == ExtendedInterval(144, 148)
        assert BP_NULL.delta == 2.0

    def test_from_interval_asymmetric(self):
        spec = NullSpec.from_interval(0.0, 0.025)
        assert spec.delta == pytest.approx(0.0125)

    def test_finite_null_whose_midpoint_overflows(self):
        spec = NullSpec.from_interval(1e308, 1.7e308)
        assert spec.delta == 0.5 * (1.7e308 - 1e308)
        assert second_gen_p(ExtendedInterval(1.2e308, 1.3e308), spec).p_delta == 1.0

    def test_rejects_zero_delta(self):
        with pytest.raises(InvalidInterval):
            NullSpec.symmetric(0.0, 0.0)
        with pytest.raises(InvalidInterval):
            NullSpec.from_interval(1.0, 1.0)

    def test_rejects_infinite(self):
        with pytest.raises(InvalidInterval):
            NullSpec.symmetric(0.0, INF)


def huge_null() -> NullSpec:
    """[-1e308, 1e308]: a finite null whose length overflows a double."""
    return NullSpec.from_interval(-1e308, 1e308)


class TestNullWhoseLengthOverflows:
    def test_half_width_is_half_the_length(self):
        assert huge_null().delta == 1e308

    def test_nested(self):
        res = second_gen_p(ExtendedInterval(0.0, 1.0), huge_null())
        assert (res.p_delta, res.correction_applied, res.delta_gap) == (1.0, False, None)

    def test_disjoint_with_its_gap(self):
        above = second_gen_p(ExtendedInterval(1.5e308, 1.7e308), huge_null())
        assert (above.p_delta, above.classification) == (0.0, Classification.ALTERNATIVE_COMPATIBLE)
        assert above.delta_gap == (1.5e308 - 1e308) / 1e308
        below = second_gen_p(ExtendedInterval(-1.7e308, -1.5e308), huge_null())
        assert (below.p_delta, below.delta_gap) == (0.0, -above.delta_gap)

    def test_straddling(self):
        res = second_gen_p(ExtendedInterval(5e307, 1.5e308), huge_null())
        assert (res.p_delta, res.correction_applied, res.delta_gap) == (0.5, False, None)

    @pytest.mark.parametrize("estimate, want", [
        ((0.0, INF), 0.25),
        ((-INF, 0.0), 0.25),
        ((-INF, 5e307), 0.375),
        ((-5e307, INF), 0.375),
        ((-1.5e308, INF), 0.5),  # covers the null: |I ∩ H0| itself overflows
        ((-INF, 1.5e308), 0.5),
    ])
    def test_one_sided_both_ways(self, estimate, want):
        res = second_gen_p(ExtendedInterval(*estimate), huge_null())
        assert (res.p_delta, res.correction_applied) == (want, True)
        assert res.classification is Classification.INCONCLUSIVE

    def test_symmetric_null_and_bare_interval_agree(self):
        spec = NullSpec.symmetric(0.0, 1e308)
        for estimate in [(0.0, INF), (-INF, 5e307), (1.5e308, 1.7e308), (5e307, 1.5e308)]:
            i = ExtendedInterval(*estimate)
            want = second_gen_p(i, huge_null())
            assert second_gen_p(i, spec) == want
            assert second_gen_p(i, spec.interval) == want


class TestSecondGenP:
    def test_partial_overlap_study3(self):
        res = second_gen_p(ExtendedInterval(142.55, 147.45), BP_NULL)
        assert res.p_delta == pytest.approx(0.7041, abs=5e-5)
        assert res.classification is Classification.INCONCLUSIVE
        assert not res.correction_applied
        assert res.delta_gap is None

    def test_wide_interval_resets_to_half_study4(self):
        res = second_gen_p(ExtendedInterval(141.59, 150.41), BP_NULL)
        assert res.p_delta == 0.5
        assert res.classification is Classification.INCONCLUSIVE
        assert res.correction_applied

    def test_nested_estimate_study1(self):
        res = second_gen_p(ExtendedInterval(145.02, 146.98), BP_NULL)
        assert res.p_delta == 1.0
        assert res.classification is Classification.NULL_COMPATIBLE
        assert not res.correction_applied

    def test_disjoint_study7(self):
        res = second_gen_p(ExtendedInterval(140.04, 143.96), BP_NULL)
        assert res.p_delta == 0.0
        assert res.classification is Classification.ALTERNATIVE_COMPATIBLE
        assert res.delta_gap is not None

    def test_log_odds_ratio_fixture(self):
        res = second_gen_p(ExtendedInterval(0.05, 1.19), NullSpec.symmetric(0.0, 0.1))
        assert res.p_delta == pytest.approx(0.0439, abs=5e-5)
        assert res.classification is Classification.INCONCLUSIVE
        assert not res.correction_applied

    def test_r_squared_fixture(self):
        res = second_gen_p(
            ExtendedInterval(0.0231, 0.0427), NullSpec.from_interval(0.0, 0.025)
        )
        assert res.p_delta == pytest.approx(0.097, abs=1e-3)

    def test_half_without_correction_study5(self):
        # estimate narrower than twice the null can still land on 1/2
        res = second_gen_p(z_interval(144.0, 1.0, 0.95), BP_NULL)
        assert res.p_delta == pytest.approx(0.5, abs=5e-5)
        assert not res.correction_applied

    def test_wide_partial_overlap_keeps_plain_fraction(self):
        # wide estimate that does NOT cover the whole null: no reset
        res = second_gen_p(ExtendedInterval(0.05, 10.0), NullSpec.symmetric(0.0, 0.1))
        assert res.p_delta == pytest.approx((0.1 - 0.05) / (10.0 - 0.05))
        assert not res.correction_applied

    def test_correction_implies_at_most_half(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            lo = rng.uniform(-5, 5)
            i = ExtendedInterval(lo, lo + rng.uniform(0.001, 20))
            h = NullSpec.symmetric(rng.uniform(-3, 3), rng.uniform(0.01, 2))
            res = second_gen_p(i, h)
            if res.correction_applied:
                assert res.p_delta <= 0.5

    def test_gap_present_iff_zero(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            lo = rng.uniform(-5, 5)
            i = ExtendedInterval(lo, lo + rng.uniform(0.001, 6))
            h = NullSpec.symmetric(rng.uniform(-3, 3), rng.uniform(0.01, 2))
            res = second_gen_p(i, h)
            assert (res.delta_gap is not None) == (res.p_delta == 0.0)

    def test_delta_to_zero_limit(self):
        i = ExtendedInterval(-1.0, 4.0)
        inside = second_gen_p(i, NullSpec.symmetric(2.0, 1e-12))
        outside = second_gen_p(i, NullSpec.symmetric(9.0, 1e-12))
        assert inside.p_delta == 0.5
        assert outside.p_delta == 0.0


class TestInfiniteIntervals:
    def test_whole_line_estimate_rejected(self):
        with pytest.raises(UnboundedEstimate):
            second_gen_p(ExtendedInterval(-INF, INF), BP_NULL)

    def test_one_sided_estimate_reduced_form(self):
        res = second_gen_p(ExtendedInterval(0.0, INF), NullSpec.from_interval(-1.0, 1.0))
        assert res.p_delta == pytest.approx(0.25)  # 0.5 * 1 / 2
        assert res.correction_applied

    def test_one_sided_covering_null_hits_half(self):
        res = second_gen_p(ExtendedInterval(-5.0, INF), NullSpec.from_interval(-1.0, 1.0))
        assert res.p_delta == 0.5
        assert res.correction_applied

    def test_nested_in_one_sided_null(self):
        p, corrected = _p_delta(
            ExtendedInterval(3.0, INF), ExtendedInterval(1.0, INF)
        )
        assert (p, corrected) == (1.0, False)

    def test_two_one_sided_infinite_overlap(self):
        p, _ = _p_delta(ExtendedInterval(0.0, INF), ExtendedInterval(1.0, INF))
        assert p == 1.0

    def test_two_one_sided_finite_overlap(self):
        p, _ = _p_delta(ExtendedInterval(0.0, INF), ExtendedInterval(-INF, 5.0))
        assert p == 0.0

    def test_one_sided_touching_finite_null(self):
        p, corrected = _p_delta(ExtendedInterval(1.0, INF), ExtendedInterval(0.0, 1.0))
        assert (p, corrected) == (0.0, False)


class TestMonotoneTransformInvariance:
    def test_log_odds_example_both_scales_inconclusive(self):
        log_i = ExtendedInterval(0.05, 1.19)
        log_h = NullSpec.symmetric(0.0, 0.1)
        anti_i = ExtendedInterval(math.exp(0.05), math.exp(1.19))
        anti_h = NullSpec.from_interval(math.exp(-0.1), math.exp(0.1))
        log_res = second_gen_p(log_i, log_h)
        anti_res = second_gen_p(anti_i, anti_h)
        assert log_res.p_delta == pytest.approx(0.0439, abs=5e-5)
        assert anti_res.p_delta == pytest.approx(0.024, abs=2e-3)
        assert log_res.classification is Classification.INCONCLUSIVE
        assert anti_res.classification is Classification.INCONCLUSIVE

    def test_exp_preserves_definitive_classifications(self):
        rng = np.random.default_rng(2026)
        for _ in range(500):
            a, b = np.sort(rng.uniform(0.01, 6.0, 2))
            c, d = np.sort(rng.uniform(0.01, 6.0, 2))
            if b == a or d == c:
                continue
            i, h = ExtendedInterval(a, b), NullSpec.from_interval(c, d)
            ei = ExtendedInterval(math.exp(a), math.exp(b))
            eh = NullSpec.from_interval(math.exp(c), math.exp(d))
            p = second_gen_p(i, h).p_delta
            ep = second_gen_p(ei, eh).p_delta
            assert (p == 0.0) == (ep == 0.0)
            assert (p == 1.0) == (ep == 1.0)


class TestDeltaGap:
    def test_gap_above(self):
        h = NullSpec.from_interval(-0.3, 0.3)
        assert delta_gap(ExtendedInterval(2.11, 2.87), h) == pytest.approx(6.03, abs=5e-3)
        assert delta_gap(ExtendedInterval(1.22, 1.64), h) == pytest.approx(3.07, abs=5e-3)

    def test_overlapping_absent(self):
        assert delta_gap(ExtendedInterval(142.55, 147.45), BP_NULL) is None

    def test_gap_below_is_negative(self):
        h = NullSpec.from_interval(-0.3, 0.3)
        assert delta_gap(ExtendedInterval(-2.87, -2.11), h) == pytest.approx(-6.03, abs=5e-3)

    def test_sign_flips_under_negation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lo = rng.uniform(0.5, 5)
            i = ExtendedInterval(lo, lo + rng.uniform(0.01, 2))
            h = NullSpec.symmetric(0.0, rng.uniform(0.01, 0.4))
            gap = delta_gap(i, h)
            neg = delta_gap(ExtendedInterval(-i.hi, -i.lo), h)
            if gap is None:
                assert neg is None
            else:
                assert neg == pytest.approx(-gap)

    def test_touching_gap_is_zero(self):
        h = NullSpec.from_interval(0.0, 1.0)
        assert delta_gap(ExtendedInterval(1.0, 2.0), h) == 0.0

    @pytest.mark.parametrize("point", [0.0, 0.5, -0.5])
    def test_point_estimate_in_null_has_no_gap(self, point):
        h = NullSpec.symmetric(0.0, 0.5)
        assert delta_gap(ExtendedInterval(point, point), h) is None
        res = second_gen_p(ExtendedInterval(point, point), h)
        assert (res.p_delta, res.delta_gap) == (1.0, None)

    def test_underflowing_overlap_has_gap_zero(self):
        # |I ∩ H0| = 2**-54 against |I| = 1.5e308: p_delta underflows to 0
        i = ExtendedInterval(math.nextafter(0.5, 0.0), 1.5e308)
        h = NullSpec.symmetric(0.0, 0.5)
        res = second_gen_p(i, h)
        assert (res.p_delta, res.delta_gap) == (0.0, 0.0)
        assert delta_gap(i, h) == 0.0


class TestClassify:
    @pytest.mark.parametrize(
        "p,want",
        [
            (0.0, Classification.ALTERNATIVE_COMPATIBLE),
            (1.0, Classification.NULL_COMPATIBLE),
            (0.7041, Classification.INCONCLUSIVE),
            (0.5, Classification.INCONCLUSIVE),
        ],
    )
    def test_mapping(self, p, want):
        assert classify(p) is want

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_rejects(self, p):
        with pytest.raises(InvalidProportion):
            classify(p)


class TestComparatorStatistics:
    def test_traditional_p_values(self):
        assert traditional_p(145.5, 0.25, 146.0) == pytest.approx(0.0455, abs=5e-5)
        assert traditional_p(146.0, 0.5, 146.0) == 1.0
        assert traditional_p(144.0, 1.0, 146.0) == pytest.approx(0.0455, abs=5e-5)

    def test_traditional_p_rejects_bad_scale(self):
        with pytest.raises(InvalidScale):
            traditional_p(1.0, 0.0, 0.0)

    def test_max_p_inside_null(self):
        assert max_p_over_null(145.0, 1.25, BP_NULL) == 1.0

    def test_max_p_outside_null(self):
        assert max_p_over_null(143.5, 0.5, BP_NULL) == pytest.approx(0.3173, abs=5e-5)
        assert max_p_over_null(142.0, 1.0, BP_NULL) == pytest.approx(0.0455, abs=5e-5)

    def test_max_p_rejects_bad_scale(self):
        with pytest.raises(InvalidScale):
            max_p_over_null(1.0, -2.0, BP_NULL)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(0.70408465, 4) == 0.7041
        assert round_half_away(0.24485, 4) == 0.2449
        assert round_half_away(-0.00005, 4) == -0.0001
