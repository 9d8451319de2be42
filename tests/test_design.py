"""Closed-form outcome probabilities: reference points, gates, monotonicity."""

import math

import numpy as np
import pytest

from oracles import normal_cdf_oracle
from sgpv import _normal
from sgpv import (
    DesignConfig,
    OutcomeProbs,
    correction_trigger_power,
    outcome_probs,
    outcome_probs_array,
    prob_alt,
    prob_inconclusive,
    prob_null,
    required_interval_ratio,
    std_normal_cdf,
    std_normal_quantile,
)
from sgpv.errors import InvalidProbability, InvalidProportion, InvalidScale

BASE = DesignConfig(theta0=0.0, delta=1.0, n=16.0, variance=1.0, alpha=0.05)


def config_grid():
    """(theta, cfg) pairs spanning the design space; > 1000 combinations."""
    pairs = []
    for alpha in (0.01, 0.05, 0.2):
        for variance in (0.5, 1.0):
            for n in (2.0, 8.0, 16.0, 64.0, 256.0):
                for delta in (0.0, 0.1, 0.5, 1.0, 2.0):
                    cfg = DesignConfig(0.0, delta, n, variance, alpha)
                    for theta in (-3.0, -1.0, -0.25, 0.0, 0.4, 1.5, 2.5):
                        pairs.append((theta, cfg))
    return pairs


class TestDesignConfig:
    def test_se_uses_scaled_variance_convention(self):
        assert BASE.se == pytest.approx(0.25)

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidScale):
            DesignConfig(0, 1, 0, 1, 0.05)
        with pytest.raises(InvalidScale):
            DesignConfig(0, 1, 16, -1, 0.05)
        with pytest.raises(InvalidProbability):
            DesignConfig(0, 1, 16, 1, 1.5)

    def test_z_is_worked_out_once_per_config(self, monkeypatch):
        runs = []
        kernel = _normal.norm_quantile_array
        monkeypatch.setattr(_normal, "norm_quantile_array", lambda p: runs.append(p) or kernel(p))
        cfg = DesignConfig(0.0, 1.0, 16.0, 1.0)
        outcome_probs_array(np.linspace(-2.0, 2.0, 9), cfg)
        for one_row in (prob_alt, prob_null, prob_inconclusive, outcome_probs):
            one_row(0.5, cfg)
        assert cfg.estimate_half_width == cfg.z_crit * cfg.se
        assert len(runs) == 1
        assert cfg == BASE and hash(cfg) == hash(BASE)  # the cached z is no field


class TestProbAlt:
    def test_point_null_recovers_alpha(self):
        for alpha in (0.01, 0.05, 0.1, 0.2):
            cfg = DesignConfig(0, 0, 16, 1, alpha)
            assert abs(prob_alt(0.0, cfg) - alpha) <= 1e-10

    def test_deep_tail_reference(self):
        # 2 * Phi(-delta/se - z) at delta=1, se=1/4, alpha=0.05
        want = 2 * normal_cdf_oracle(-4.0 - std_normal_quantile(0.975))
        assert prob_alt(0.0, BASE) == pytest.approx(want, rel=1e-10)
        assert prob_alt(0.0, BASE) == pytest.approx(2.5e-9, rel=0.02)

    def test_edge_limit_is_half_alpha(self):
        cfg = DesignConfig(0, 0.5, 1e8, 1, 0.05)
        assert prob_alt(0.5, cfg) == pytest.approx(0.025, abs=1e-6)

    def test_bounded_by_alpha_inside_null(self):
        for theta, cfg in config_grid():
            if abs(theta - cfg.theta0) <= cfg.delta:
                assert prob_alt(theta, cfg) <= cfg.alpha + 1e-12

    def test_strictly_decreasing_in_n_and_delta(self):
        values_n = [
            prob_alt(0.0, DesignConfig(0, 0.3, n, 1, 0.05))
            for n in (4, 16, 64, 256, 1024, 4096)
        ]
        assert all(b < a for a, b in zip(values_n, values_n[1:]))
        values_d = [
            prob_alt(0.0, DesignConfig(0, d, 16, 1, 0.05))
            for d in np.linspace(0.0, 2.0, 21)
        ]
        assert all(b < a for a, b in zip(values_d, values_d[1:]))

    def test_consistency_in_the_limit(self):
        inside = DesignConfig(0, 0.5, 100000, 1, 0.05)
        assert prob_alt(0.2, inside) < 1e-12
        assert prob_alt(1.0, inside) > 1 - 1e-12


class TestProbNull:
    def test_gate_closed_at_equality(self):
        z = std_normal_quantile(0.975)
        n = 16.0
        delta = z * math.sqrt(1.0 / n)
        cfg = DesignConfig(0, delta, n, 1, 0.05)
        assert prob_null(0.0, cfg) == 0.0

    def test_gate_closed_below(self):
        cfg = DesignConfig(0, 0.1, 16, 1, 0.05)  # z*se ~ 0.49 > 0.1
        assert prob_null(0.0, cfg) == 0.0
        assert prob_null(0.05, cfg) == 0.0

    def test_reference_value(self):
        z = std_normal_quantile(0.975)
        want = normal_cdf_oracle(4.0 - z) - normal_cdf_oracle(-4.0 + z)
        got = prob_null(0.0, BASE)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.9586, abs=1e-4)  # 4-dp display value

    def test_nondecreasing_in_n_and_to_one(self):
        values = [
            prob_null(0.0, DesignConfig(0, 0.5, n, 1, 0.05))
            for n in (16, 32, 64, 128, 512, 4096, 65536)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > 1 - 1e-12

    def test_tail_stability_far_truth(self):
        # far from the null the nesting probability is tiny but positive
        cfg = DesignConfig(0, 0.5, 100, 1, 0.05)
        got = prob_null(3.0, cfg)
        assert 0.0 < got < 1e-100


class TestProbInconclusive:
    def test_three_se_outside_edge(self):
        # truth three standard errors beyond the null edge: ~15% inconclusive
        cfg = DesignConfig(0, 1.0, 1, 1, 0.05)  # se = 1
        got = prob_inconclusive(1.0 + 3.0, cfg)
        assert got == pytest.approx(0.15, abs=0.02)

    def test_edge_maximum_approaches_one_minus_alpha(self):
        cfg = DesignConfig(0, 0.5, 1e8, 1, 0.05)
        assert prob_inconclusive(0.5, cfg) == pytest.approx(0.95, abs=1e-4)

    def test_partition_of_unity_on_grid(self):
        pairs = config_grid()
        assert len(pairs) >= 1000
        for theta, cfg in pairs:
            total = (
                prob_alt(theta, cfg)
                + prob_null(theta, cfg)
                + prob_inconclusive(theta, cfg)
            )
            assert abs(total - 1.0) <= 1e-10


class TestOutcomeProbs:
    def test_bundles_and_validates(self):
        probs = outcome_probs(0.3, BASE)
        assert probs.p_alt == prob_alt(0.3, BASE)
        assert probs.p_null == prob_null(0.3, BASE)

    def test_rejects_non_partition(self):
        with pytest.raises(InvalidProportion):
            OutcomeProbs(0.5, 0.5, 0.5)
        with pytest.raises(InvalidProportion):
            OutcomeProbs(-0.1, 0.6, 0.5)


class TestDesignAlgebra:
    def test_interval_ratio_reference_points(self):
        assert required_interval_ratio(0.05, 0.50) == pytest.approx(1.000, abs=1e-3)
        assert required_interval_ratio(0.05, 0.80) == pytest.approx(0.700, abs=1e-3)
        assert required_interval_ratio(0.05, 0.90) == pytest.approx(0.605, abs=1e-3)

    def test_trigger_power(self):
        assert correction_trigger_power(0.05) == pytest.approx(0.1635, abs=1e-3)

    def test_trigger_round_trip(self):
        trigger = correction_trigger_power(0.05)
        assert required_interval_ratio(0.05, trigger) == pytest.approx(2.0, abs=0.01)

    def test_trigger_monotone_in_alpha(self):
        values = [correction_trigger_power(a) for a in np.linspace(0.01, 0.9, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidProbability):
            required_interval_ratio(0.0, 0.8)
        with pytest.raises(InvalidProbability):
            required_interval_ratio(0.05, 1.0)
        with pytest.raises(InvalidProbability):
            correction_trigger_power(1.0)

    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-53, 2.0**-60, 5e-324])
    def test_alpha_whose_half_does_not_move_one(self, alpha):
        # 1 - alpha/2 rounds to 1: each user of z(alpha) names alpha, not the quantile
        message = rf"alpha must exceed 2\*\*-53 \(1 - alpha/2 rounds to 1\), got {alpha!r}$"
        for z_of in (lambda: DesignConfig(0.0, 1.0, 4.0, 1.0, alpha).z_crit,
                     lambda: required_interval_ratio(alpha, 0.8),
                     lambda: correction_trigger_power(alpha)):
            with pytest.raises(InvalidProbability, match=message):
                z_of()
        above = math.nextafter(2.0**-53, 1.0)
        assert DesignConfig(0.0, 1.0, 4.0, 1.0, above).z_crit == std_normal_quantile(1.0 - 2**-53)

    @pytest.mark.parametrize("alpha, power", [(0.05, 0.01), (0.05, 0.025), (0.5, 0.25), (0.2, 0.1)])
    def test_rejects_a_power_of_at_most_half_alpha(self, alpha, power):
        # z_{1-alpha/2} + z_power <= 0: the ratio would be negative or 1/0
        with pytest.raises(InvalidProbability, match="power must exceed alpha/2"):
            required_interval_ratio(alpha, power)
        assert required_interval_ratio(alpha, 0.5 * alpha + 1e-9) > 0.0


class TestPowerCurve:
    def test_single_point_matches_outcome_probs(self):
        p_alt, p_null, _ = outcome_probs_array([0.0], BASE)
        assert len(p_alt) == 1
        probs = outcome_probs(0.0, BASE)
        assert p_alt[0] == probs.p_alt
        assert p_null[0] == probs.p_null

    def test_symmetric_grid_gives_symmetric_power(self):
        p_alt = outcome_probs_array(np.linspace(-2, 2, 41), BASE)[0].tolist()
        for left, right in zip(p_alt, reversed(p_alt)):
            assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    def test_monotone_outside_null(self):
        cfg = DesignConfig(0, 0.3, 16, 1, 0.05)
        alts = outcome_probs_array(np.linspace(0.3, 3.0, 28), cfg)[0].tolist()
        assert all(b >= a for a, b in zip(alts, alts[1:]))
        # strictly increasing until the curve saturates at 1 in doubles
        unsaturated = [a for a in alts if a < 1.0 - 1e-12]
        assert len(unsaturated) >= 5
        assert all(b > a for a, b in zip(unsaturated, unsaturated[1:]))


class TestKernelIdentity:
    def test_type_one_errors_live_between_2_and_4_se(self):
        got = 2 * (std_normal_cdf(4.0) - std_normal_cdf(1.96)) / 0.05
        assert got == pytest.approx(0.9986, abs=5e-5)
