"""Monte Carlo oracle: determinism, substreams, closed-form agreement."""

import json
import math

import numpy as np
import pytest

from sgpv import (
    DesignConfig,
    PriorOdds,
    SimConfig,
    fdr_sgpv,
    prob_null,
    simulate_outcomes,
    simulate_reliability,
)
from sgpv.cli import main
from sgpv.errors import InvalidConfig
from sgpv.simulate import _uniform_lanes

FIG5 = DesignConfig(0.0, 0.5, 16.0, 1.0, 0.05)


def three_se(p, replicates):
    return 3.0 * math.sqrt(p * (1.0 - p) / replicates)


class TestSubstreams:
    def test_lane_blocks_are_position_independent(self):
        whole = _uniform_lanes(42, 0, 100)
        tail = _uniform_lanes(42, 60, 40)
        assert np.array_equal(whole[60:], tail)

    def test_different_seeds_differ(self):
        assert not np.array_equal(_uniform_lanes(1, 0, 10), _uniform_lanes(2, 0, 10))


class TestDeterminism:
    def test_same_seed_same_counts(self):
        cfg = SimConfig(FIG5, 0.25, 20000, 314159)
        assert simulate_outcomes(cfg).counts == simulate_outcomes(cfg).counts

    @pytest.mark.parametrize("chunks", [2, 3, 7, 64])
    def test_chunking_is_invisible(self, chunks):
        cfg = SimConfig(FIG5, 0.25, 10007, 271828)
        assert simulate_outcomes(cfg).counts == simulate_outcomes(cfg, chunks=chunks).counts

    def test_reliability_chunking_is_invisible(self):
        cfg = SimConfig(FIG5, 0.0, 10007, 99991)
        base = simulate_reliability(cfg, PriorOdds(1.0), 1.0)
        split = simulate_reliability(cfg, PriorOdds(1.0), 1.0, chunks=5)
        assert base == split

    def test_seed_changes_counts(self):
        a = simulate_outcomes(SimConfig(FIG5, 0.25, 20000, 1))
        b = simulate_outcomes(SimConfig(FIG5, 0.25, 20000, 2))
        assert a.counts != b.counts


class TestGoldenCounts:
    """Counts recorded from the per-replicate scalar classifier (seed 7, 1e5)."""

    @pytest.mark.parametrize(
        "theta, delta, n, counts",
        [
            (0.3, 0.5, 16.0, (280, 1582, 98138)),
            (0.0, 0.5, 100.0, (0, 99767, 233)),
            (1.0, 0.2, 4.0, (36067, 0, 63933)),
            (0.0, 0.0, 16.0, (5021, 0, 94979)),
        ],
    )
    def test_outcome_counts(self, theta, delta, n, counts):
        design = DesignConfig(0.0, delta, n, 1.0, 0.05)
        result = simulate_outcomes(SimConfig(design, theta, 100_000, 7))
        assert result.counts == counts
        assert all(type(c) is int for c in result.counts)  # JSON-serialisable

    @pytest.mark.parametrize("chunks", [1, 3])
    def test_reliability_counts(self, chunks):
        cfg = SimConfig(FIG5, 0.0, 100_000, 7)
        rel = simulate_reliability(cfg, PriorOdds(1.0), 1.0, chunks=chunks)
        got = (
            rel.n_discoveries,
            rel.n_false_discoveries,
            rel.n_confirmations,
            rel.n_false_confirmations,
        )
        assert got == (25649, 8, 1594, 1)


class TestOutcomeAgreement:
    def test_classical_alpha_recovery_at_zero_delta(self):
        design = DesignConfig(0.0, 0.0, 25.0, 1.0, 0.05)
        result = simulate_outcomes(SimConfig(design, 0.0, 100_000, 8675309))
        assert abs(result.empirical.p_alt - 0.05) <= three_se(0.05, 100_000)
        assert result.empirical.p_null == 0.0

    def test_nesting_probability_matches_closed_form(self):
        design = DesignConfig(0.0, 1.0, 16.0, 1.0, 0.05)
        result = simulate_outcomes(SimConfig(design, 0.0, 100_000, 24601))
        closed = prob_null(0.0, design)
        assert closed == pytest.approx(0.9586, abs=1e-4)
        assert abs(result.empirical.p_null - closed) <= three_se(closed, 100_000)

    def test_counts_and_empirical_are_consistent(self):
        cfg = SimConfig(FIG5, 0.3, 5000, 7)
        result = simulate_outcomes(cfg)
        assert sum(result.counts) == cfg.replicates
        assert result.empirical.p_alt == result.counts[0] / cfg.replicates
        assert result.empirical.p_null == result.counts[1] / cfg.replicates

    def test_gate_closed_design_never_nests(self):
        design = DesignConfig(0.0, 0.5, 5.0, 1.0, 0.05)
        result = simulate_outcomes(SimConfig(design, 0.0, 30_000, 5))
        assert result.counts[1] == 0


class TestReliabilityAgreement:
    def test_symmetric_truth_gives_prior(self):
        # theta1 == theta0 makes every discovery a coin flip over the truth
        design = DesignConfig(0.0, 0.0, 16.0, 1.0, 0.05)
        cfg = SimConfig(design, 0.0, 100_000, 13)
        rel = simulate_reliability(cfg, PriorOdds(1.0), 0.0)
        assert rel.n_discoveries > 0
        se = 3.0 * math.sqrt(0.25 / rel.n_discoveries)
        assert abs(rel.empirical_fdr - 0.5) <= se

    def test_figure5_fdr_matches_bayes_formula(self):
        cfg = SimConfig(FIG5, 0.0, 100_000, 4242)
        rel = simulate_reliability(cfg, PriorOdds(1.0), 1.0)
        closed = fdr_sgpv(1.0, FIG5, PriorOdds(1.0))
        se = 3.0 * math.sqrt(closed * (1.0 - closed) / rel.n_discoveries)
        assert abs(rel.empirical_fdr - closed) <= se

    def test_large_odds_far_alternative_drives_fdr_down(self):
        cfg = SimConfig(FIG5, 0.0, 50_000, 6174)
        rel = simulate_reliability(cfg, PriorOdds(50.0), 2.0)
        assert rel.empirical_fdr is not None
        assert rel.empirical_fdr < 1e-3

    def test_absent_rates_when_events_never_happen(self):
        # a design whose discovery probability is astronomically small
        design = DesignConfig(0.0, 3.0, 64.0, 1.0, 0.05)
        cfg = SimConfig(design, 0.0, 2000, 1001)
        rel = simulate_reliability(cfg, PriorOdds(0.001), 0.0)
        assert rel.empirical_fdr is None
        # and confirmations are impossible below the nesting gate
        small = DesignConfig(0.0, 0.5, 5.0, 1.0, 0.05)
        rel2 = simulate_reliability(SimConfig(small, 0.0, 2000, 3), PriorOdds(1.0), 1.0)
        assert rel2.empirical_fcr is None
        assert rel2.n_confirmations == 0


class TestValidation:
    def test_rejects_zero_replicates(self):
        with pytest.raises(InvalidConfig):
            SimConfig(FIG5, 0.0, 0, 1)

    def test_rejects_bad_seed(self):
        with pytest.raises(InvalidConfig):
            SimConfig(FIG5, 0.0, 10, -1)
        with pytest.raises(InvalidConfig):
            SimConfig(FIG5, 0.0, 10, 2**64)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_truth(self, theta):
        with pytest.raises(InvalidConfig, match="theta must be finite"):
            SimConfig(FIG5, theta, 10, 1)

    @pytest.mark.parametrize("theta1", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_alternative(self, theta1):
        with pytest.raises(InvalidConfig, match="theta1 must be finite"):
            simulate_reliability(SimConfig(FIG5, 0.0, 10, 1), PriorOdds(1.0), theta1)

    def test_rejects_zero_chunks(self):
        with pytest.raises(InvalidConfig):
            simulate_outcomes(SimConfig(FIG5, 0.0, 10, 1), chunks=0)

    @pytest.mark.parametrize("field", ["replicates", "seed"])
    @pytest.mark.parametrize("value", [1.5, 10.0, math.nan, "10", True])
    def test_rejects_values_that_are_not_integers(self, field, value):
        # Philox truncates a float key: seed 1.5 would silently run as seed 1
        with pytest.raises(InvalidConfig) as raised:
            SimConfig(FIG5, 0.0, **{"replicates": 10, "seed": 1, field: value})
        assert raised.value.args == (f"{field} must be an integer, got {value!r}",)

    @pytest.mark.parametrize("chunks", [1.5, 2.0, "2", True])
    def test_rejects_chunks_that_are_not_integers(self, chunks):
        cfg = SimConfig(FIG5, 0.0, 10, 1)
        for run in (lambda: simulate_outcomes(cfg, chunks),
                    lambda: simulate_reliability(cfg, PriorOdds(1.0), 1.0, chunks)):
            with pytest.raises(InvalidConfig) as raised:
                run()
            assert raised.value.args == (f"chunks must be an integer, got {chunks!r}",)

    def test_numpy_integers_are_integers(self):
        cfg = SimConfig(FIG5, 0.3, np.int64(2000), np.uint64(1))
        want = simulate_outcomes(SimConfig(FIG5, 0.3, 2000, 1), chunks=3).counts
        got = simulate_outcomes(cfg, chunks=np.int32(3)).counts
        assert got == want
        assert [type(c) for c in got] == [int, int, int]
        assert json.loads(json.dumps(got)) == list(want)
        assert type(cfg.replicates) is int and type(cfg.seed) is int

    @pytest.mark.parametrize("replicates", [10**20, 2**61])
    def test_replicates_beyond_one_array_raise_invalid_config(self, replicates):
        # numpy refuses both shapes before allocating anything
        cfg = SimConfig(FIG5, 0.0, replicates, 1)
        with pytest.raises(InvalidConfig, match="cannot draw"):
            simulate_outcomes(cfg)
        with pytest.raises(InvalidConfig, match="cannot draw"):
            simulate_reliability(cfg, PriorOdds(1.0), 1.0)


SIM_FLAGS = ["--theta0", "0", "--delta", "0.3", "--n", "100", "--variance", "1"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_replicates_beyond_one_array_exit_3(tmp_path, capsys, source):
    huge = 100000000000000000000
    if source == "flag":
        extra = ["--replicates", str(huge)]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"replicates": huge}))
        extra = ["--config", str(cfg)]
    code = main(["simulate", *SIM_FLAGS, *extra])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("sgpv: configuration error: cannot draw 100000000000000000000 ")
