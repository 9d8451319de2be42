"""False discovery / confirmation rates and their test counterparts."""

import numpy as np
import pytest

from sgpv import _normal
from sgpv import (
    DesignConfig,
    PriorOdds,
    classical_beta,
    classical_power,
    emit_reliability_curve,
    fcr_sgpv,
    fdr_sgpv,
    fdr_test,
    fnr_test,
    prob_alt,
    prob_inconclusive,
    reliability_curve_csv,
)
from sgpv.errors import DegenerateDesign, InvalidOdds, InvalidProbability, InvalidSeries

# delta = sigma/2 with sample size just large enough to allow nesting
FIG5 = DesignConfig(theta0=0.0, delta=0.5, n=16.0, variance=1.0, alpha=0.05)
EVEN = PriorOdds(1.0)


def test_point_null_shares_the_designs_z(monkeypatch):
    runs = []
    kernel = _normal.norm_quantile_array
    monkeypatch.setattr(_normal, "norm_quantile_array", lambda p: runs.append(p) or kernel(p))
    cfg = DesignConfig(theta0=0.0, delta=0.5, n=16.0, variance=1.0, alpha=0.05)
    got = [classical_beta(1.0, cfg), classical_power(1.0, cfg), fdr_sgpv(1.0, cfg, EVEN),
           fcr_sgpv(1.0, cfg, EVEN), emit_reliability_curve(cfg, EVEN, [0.5, 1.0])]
    assert len(runs) == 1
    point = DesignConfig(theta0=0.0, delta=0.0, n=16.0, variance=1.0, alpha=0.05)
    assert got[:2] == [prob_inconclusive(1.0, point), prob_alt(1.0, point)]


class TestPriorOdds:
    @pytest.mark.parametrize("r", [0.0, -1.0, float("inf")])
    def test_rejects(self, r):
        with pytest.raises(InvalidOdds):
            PriorOdds(r)


class TestFdrSgpv:
    def test_equal_likelihoods_give_prior(self):
        for r in (0.25, 1.0, 4.0):
            assert fdr_sgpv(0.0, FIG5, PriorOdds(r)) == pytest.approx(1.0 / (1.0 + r))

    def test_far_alternative_is_very_reliable(self):
        theta1 = 0.5 + 5 * FIG5.se
        assert fdr_sgpv(theta1, FIG5, EVEN) < 1e-3

    def test_dominates_test_fdr_outside_null(self):
        for theta1 in np.linspace(0.51, 3.0, 100):
            beta = classical_beta(theta1, FIG5)
            assert fdr_sgpv(theta1, FIG5, EVEN) <= fdr_test(EVEN, 0.05, beta) + 1e-12

    def test_degenerate_design_raises(self):
        huge = DesignConfig(0.0, 1.0, 1e6, 1.0, 0.05)  # alt prob underflows at theta0
        with pytest.raises(DegenerateDesign):
            fdr_sgpv(2.0, huge, EVEN)

    def test_continuous_in_theta1(self):
        grid = np.linspace(-2, 2, 401)
        values = [fdr_sgpv(t, FIG5, EVEN) for t in grid]
        jumps = np.abs(np.diff(values))
        assert jumps.max() < 0.05


class TestFcrSgpv:
    def test_gate_closed_is_undefined(self):
        small = DesignConfig(0.0, 0.5, 5.0, 1.0, 0.05)  # z*se ~ 0.876 > delta
        assert fcr_sgpv(1.0, small, EVEN) is None

    def test_equal_likelihoods_give_prior(self):
        for r in (0.5, 1.0, 3.0):
            got = fcr_sgpv(0.0, FIG5, PriorOdds(r))
            assert got == pytest.approx(1.0 / (1.0 + 1.0 / r))

    def test_vanishing_alternative_mass_limits_to_zero(self):
        cfg = DesignConfig(0.0, 0.5, 400.0, 1.0, 0.05)
        assert fcr_sgpv(50.0, cfg, EVEN) == 0.0

    def test_below_fnr_outside_null(self):
        theta1 = 1.0
        beta = classical_beta(theta1, FIG5)
        assert fcr_sgpv(theta1, FIG5, EVEN) <= fnr_test(EVEN, 0.05, beta)

    def test_can_exceed_fnr_inside_null_at_large_n(self):
        # a hypothesis buried inside the null interval at a large sample size:
        # the test's beta collapses while nesting stays routine
        cfg = DesignConfig(0.0, 0.5, 2500.0, 1.0, 0.05)
        theta1 = 0.25
        beta = classical_beta(theta1, cfg)
        assert beta > 0.0
        assert fcr_sgpv(theta1, cfg, EVEN) > fnr_test(EVEN, 0.05, beta)


class TestClassicalRates:
    def test_fdr_test_arithmetic(self):
        assert fdr_test(EVEN, 0.05, 0.5) == pytest.approx(1.0 / 11.0)
        assert fdr_test(EVEN, 0.05, 1e-12) == pytest.approx(1.0 / 21.0, rel=1e-6)
        assert fdr_test(PriorOdds(1e9), 0.05, 0.5) < 1e-7

    def test_fnr_test_arithmetic(self):
        assert fnr_test(EVEN, 0.05, 0.95) == pytest.approx(0.5)
        assert fnr_test(EVEN, 0.05, 1e-12) < 1e-10
        assert fnr_test(EVEN, 0.3, 0.7) == pytest.approx(0.5)  # beta = 1 - alpha

    def test_fnr_test_limit_when_beta_times_odds_underflows(self):
        assert fnr_test(PriorOdds(1e-308), 0.05, 1e-20) == 0.0
        assert fnr_test(PriorOdds(1e-300), 0.05, 1e-20) == 1.0 / (1.0 + 0.95 / (1e-20 * 1e-300))

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.0, 0.5), (0.05, 0.0), (0.05, 1.0)])
    def test_rejects_rates(self, alpha, beta):
        with pytest.raises(InvalidProbability):
            fdr_test(EVEN, alpha, beta)
        with pytest.raises(InvalidProbability):
            fnr_test(EVEN, alpha, beta)

    def test_power_and_beta_are_complements(self):
        for theta1 in np.linspace(-2, 2, 41):
            power = classical_power(theta1, FIG5)
            beta = classical_beta(theta1, FIG5)
            assert power + beta == pytest.approx(1.0, abs=1e-12)

    def test_beta_stable_in_deep_tail(self):
        beta = classical_beta(0.25, DesignConfig(0.0, 0.5, 2500.0, 1.0, 0.05))
        assert 0.0 < beta < 1e-20


class TestCurve:
    def test_degenerate_grid(self):
        rows = emit_reliability_curve(FIG5, EVEN, [0.0])
        assert rows[0].fdr_sgpv == pytest.approx(0.5)

    def test_rates_decrease_away_from_null(self):
        grid = list(np.linspace(0.55, 2.5, 40))
        rows = emit_reliability_curve(FIG5, EVEN, grid)
        fdrs = [r.fdr_sgpv for r in rows]
        assert all(b < a for a, b in zip(fdrs, fdrs[1:]))

    def test_n_sweep_matches_small_sample_story(self):
        # at n = 5 the FCR is undefined; from n = 20 it exists and sgpv
        # discovery rates sit below the test's
        for n in (5.0, 20.0, 60.0, 100.0):
            cfg = DesignConfig(0.0, 0.5, n, 1.0, 0.05)
            rows = emit_reliability_curve(cfg, EVEN, list(np.linspace(0.6, 2.0, 15)))
            for row in rows:
                assert row.fdr_sgpv <= row.fdr_test + 1e-12
                if n == 5.0:
                    assert row.fcr_sgpv is None
                else:
                    assert row.fcr_sgpv is not None

    def test_beta_underflow_uses_limits(self):
        cfg = DesignConfig(0.0, 0.5, 4000.0, 1.0, 0.05)
        rows = emit_reliability_curve(cfg, EVEN, [5.0])
        assert rows[0].fnr_test == 0.0
        assert rows[0].fdr_test == pytest.approx(1.0 / 21.0)

    def test_csv_serializes_absent_fcr_as_empty(self):
        small = DesignConfig(0.0, 0.5, 5.0, 1.0, 0.05)
        text = reliability_curve_csv(emit_reliability_curve(small, EVEN, [1.0]))
        lines = text.strip().split("\n")
        assert lines[0] == "theta1,fdr_sgpv,fcr_sgpv,fdr_test,fnr_test"
        assert lines[1].split(",")[2] == ""

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidSeries):
            emit_reliability_curve(FIG5, EVEN, [])
