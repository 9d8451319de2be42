"""Acceptance suite: every gating criterion, one test each, with a
printed PASS/FAIL line per criterion (run with ``pytest -s`` to watch).

Known nonconformance, kept honest rather than loosened: criterion C2's
non-central-F fixture demands 0.024 +/- 1e-3, but the only published
inputs ([0.0246, 0.0405] against [0, 0.025]) give 0.02516. The source
rounded its interval bounds after computing 0.024 from unrounded ones,
so the target is unreachable from the printed inputs. See README.
"""

import math
import time

import numpy as np
import pytest

from sgpv import (
    Classification,
    DesignConfig,
    ExtendedInterval,
    NullSpec,
    PriorOdds,
    SimConfig,
    classical_beta,
    correction_trigger_power,
    fcr_sgpv,
    fdr_sgpv,
    max_p_over_null,
    outcome_probs,
    prob_alt,
    prob_inconclusive,
    prob_null,
    ranked_indices,
    required_interval_ratio,
    screen_intervals,
    second_gen_p,
    simulate_outcomes,
    simulate_reliability,
    std_normal_cdf,
    traditional_p,
    z_interval,
)

SEED = 20260810


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


# --------------------------------------------------------------------- C1

TABLE1 = [
    # mean, se, p_delta, max_p, trad_p  (None marks "< 1e-4")
    (146.0, 0.5, 1.0, 1.0, 1.0),
    (145.5, 0.25, 1.0, 1.0, 0.0455),
    (145.0, 1.25, 0.7041, 1.0, 0.4237),
    (146.0, 2.25, 0.5, 1.0, 1.0),
    (144.0, 1.0, 0.5, 1.0, 0.0455),
    (143.5, 0.5, 0.2449, 0.3173, None),
    (142.0, 1.0, 0.0, 0.0455, None),
    (141.0, 0.5, 0.0, None, None),
]


def test_c01_table1_reproduction():
    start = time.perf_counter()
    null = NullSpec.symmetric(146.0, 2.0)
    ok = True
    for mean, se, want_p, want_max, want_trad in TABLE1:
        res = second_gen_p(z_interval(mean, se, 0.95), null)
        ok &= abs(res.p_delta - want_p) <= 5e-5
        got_max = max_p_over_null(mean, se, null)
        ok &= got_max < 1e-4 if want_max is None else abs(got_max - want_max) <= 5e-5
        got_trad = traditional_p(mean, se, 146.0)
        ok &= got_trad < 1e-4 if want_trad is None else abs(got_trad - want_trad) <= 5e-5
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report("C1 table-of-8-studies", ok, f"{elapsed:.3f}s")


# --------------------------------------------------------------------- C2


def test_c02_sr8_odds_ratio_fixture():
    log_res = second_gen_p(ExtendedInterval(0.05, 1.19), NullSpec.symmetric(0.0, 0.1))
    anti = second_gen_p(
        ExtendedInterval(math.exp(0.05), math.exp(1.19)),
        NullSpec.from_interval(math.exp(-0.1), math.exp(0.1)),
    )
    ok = abs(log_res.p_delta - 0.0439) <= 5e-4
    ok &= abs(anti.p_delta - 0.024) <= 2e-3
    ok &= log_res.classification is Classification.INCONCLUSIVE
    ok &= anti.classification is Classification.INCONCLUSIVE
    report("C2 odds-ratio fixture (log and anti-log)", ok)


def test_c02_sr9_bootstrap_and_delta_method():
    h0 = NullSpec.from_interval(0.0, 0.025)
    boot = second_gen_p(ExtendedInterval(0.0231, 0.0427), h0)
    delta = second_gen_p(ExtendedInterval(0.0251, 0.04107), h0)
    ok = abs(boot.p_delta - 0.097) <= 1e-3 and delta.p_delta == 0.0
    report("C2 r-squared fixture (bootstrap, delta method)", ok)


def test_c02_sr9_noncentral_f():
    # Unattainable from the printed inputs: (0.025-0.0246)/(0.0405-0.0246)
    # = 0.02516, outside 0.024 +/- 1e-3. Kept as an honest failure.
    got = second_gen_p(
        ExtendedInterval(0.0246, 0.0405), NullSpec.from_interval(0.0, 0.025)
    ).p_delta
    report("C2 r-squared fixture (non-central F)", abs(got - 0.024) <= 1e-3,
           f"computed {got:.5f}")


def test_c02_sr9_wider_null_confirms():
    h0 = NullSpec.from_interval(0.0, 0.05)
    ok = all(
        second_gen_p(ExtendedInterval(lo, hi), h0).p_delta == 1.0
        for lo, hi in [(0.0231, 0.0427), (0.0251, 0.04107), (0.0246, 0.0405)]
    )
    report("C2 r-squared fixture (all confirm under wider null)", ok)


# --------------------------------------------------------------------- C3


def test_c03_delta_gaps_and_ranking():
    h0 = NullSpec.from_interval(-0.3, 0.3)
    ids = ["gene3252", "gene2288"]
    rep = screen_intervals(ids, [1.22, 2.11], [1.64, 2.87], [math.nan] * 2, [False] * 2, h0)
    gaps = dict(zip(rep.ids, rep.delta_gap.tolist()))
    ok = abs(gaps["gene2288"] - 6.03) <= 0.01
    ok &= abs(gaps["gene3252"] - 3.07) <= 0.01
    ok &= rep.ids[ranked_indices(rep)[0]] == "gene2288"
    report("C3 delta gaps and ranking", ok)


# --------------------------------------------------------------------- C4


def test_c04_design_algebra():
    ok = abs(required_interval_ratio(0.05, 0.50) - 1.000) <= 1e-3
    ok &= abs(required_interval_ratio(0.05, 0.80) - 0.700) <= 1e-3
    ok &= abs(required_interval_ratio(0.05, 0.90) - 0.605) <= 1e-3
    ok &= abs(correction_trigger_power(0.05) - 0.1635) <= 1e-3
    report("C4 width-ratio algebra and trigger power", ok)


# --------------------------------------------------------------------- C5


def acceptance_grid():
    pairs = []
    for alpha in (0.01, 0.05, 0.2):
        for variance in (0.5, 1.0):
            for n in (2.0, 8.0, 16.0, 64.0, 256.0):
                for delta in (0.0, 0.1, 0.5, 1.0, 2.0):
                    cfg = DesignConfig(0.0, delta, n, variance, alpha)
                    for theta in (-3.0, -1.0, -0.25, 0.0, 0.4, 1.5, 2.5):
                        pairs.append((theta, cfg))
    return pairs


def test_c05_partition_of_unity():
    start = time.perf_counter()
    pairs = acceptance_grid()
    ok = len(pairs) >= 1000
    worst = 0.0
    for theta, cfg in pairs:
        total = prob_alt(theta, cfg) + prob_null(theta, cfg) + prob_inconclusive(theta, cfg)
        worst = max(worst, abs(total - 1.0))
    ok &= worst <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report("C5 partition of unity", ok, f"{len(pairs)} configs, worst {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------- C6


def test_c06_error_rate_bounds():
    ok = True
    for theta, cfg in acceptance_grid():
        del theta  # sweep inside the closed null interval instead
        for frac in np.linspace(-1.0, 1.0, 9):
            ok &= prob_alt(cfg.theta0 + frac * cfg.delta, cfg) <= cfg.alpha + 1e-12
    for alpha in (0.01, 0.05, 0.2):
        cfg = DesignConfig(0.0, 0.0, 16.0, 1.0, alpha)
        ok &= abs(prob_alt(0.0, cfg) - alpha) <= 1e-10
    n_sweep = [prob_alt(0.0, DesignConfig(0, 0.3, n, 1, 0.05))
               for n in (4, 8, 16, 64, 256, 1024, 4096)]
    ok &= all(b < a for a, b in zip(n_sweep, n_sweep[1:]))
    d_sweep = [prob_alt(0.0, DesignConfig(0, d, 16, 1, 0.05))
               for d in np.linspace(0.0, 2.0, 21)]
    ok &= all(b < a for a, b in zip(d_sweep, d_sweep[1:]))
    report("C6 error-rate bounds and monotone sweeps", ok)


# --------------------------------------------------------------------- C7


def test_c07_tail_identity():
    got = 2.0 * (std_normal_cdf(4.0) - std_normal_cdf(1.96)) / 0.05
    report("C7 share of errors between 2 and 4 SE", abs(got - 0.9986) <= 5e-5,
           f"computed {got:.6f}")


# --------------------------------------------------------------------- C8

MC_CONFIGS = [
    # (theta, delta, n, alpha) with variance 1 throughout
    (0.0, 0.0, 25.0, 0.05),      # classical alpha recovery
    (0.0, 0.5, 16.0, 0.05),      # nesting barely possible
    (0.5, 0.5, 16.0, 0.05),      # truth on the edge
    (1.0, 0.5, 16.0, 0.05),      # truth outside
    (0.0, 0.5, 5.0, 0.05),       # nesting gate closed
    (0.75, 0.5, 5.0, 0.05),
    (0.0, 1.0, 16.0, 0.05),      # deep-tail alt probability
    (1.2, 1.0, 16.0, 0.05),
    (0.0, 0.1, 100.0, 0.05),     # narrow zone, gate closed
    (0.3, 0.3, 400.0, 0.05),     # edge at a large sample size
    (0.0, 0.3, 400.0, 0.05),
    (0.25, 0.5, 100.0, 0.1),     # interior truth, wider alpha
    (-1.0, 2.0, 8.0, 0.01),      # wide zone, truth inside
]

REPLICATES = 100_000


@pytest.mark.slow  # about 18 s: 1e5 replicates
def test_c08_monte_carlo_oracle_agreement():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for theta, delta, n, alpha in MC_CONFIGS:
        design = DesignConfig(0.0, delta, n, 1.0, alpha)
        sim = simulate_outcomes(SimConfig(design, theta, REPLICATES, SEED))
        closed = outcome_probs(theta, design)
        for emp, ref in (
            (sim.empirical.p_alt, closed.p_alt),
            (sim.empirical.p_null, closed.p_null),
            (sim.empirical.p_inconclusive, closed.p_inconclusive),
        ):
            bound = 3.0 * math.sqrt(ref * (1.0 - ref) / REPLICATES)
            ok &= abs(emp - ref) <= bound
            if bound > 0:
                worst = max(worst, abs(emp - ref) / bound)

    fig5 = DesignConfig(0.0, 0.5, 16.0, 1.0, 0.05)
    for r, theta1 in ((1.0, 0.75), (1.0, 0.6), (4.0, 0.6)):
        odds = PriorOdds(r)
        rel = simulate_reliability(SimConfig(fig5, 0.0, REPLICATES, SEED), odds, theta1)
        closed_fdr = fdr_sgpv(theta1, fig5, odds)
        bound = 3.0 * math.sqrt(closed_fdr * (1.0 - closed_fdr) / rel.n_discoveries)
        ok &= rel.empirical_fdr is not None
        ok &= abs(rel.empirical_fdr - closed_fdr) <= bound
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(
        "C8 Monte Carlo oracle agreement",
        ok,
        f"{len(MC_CONFIGS)} outcome configs + 3 reliability, worst {worst:.2f} of bound, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------- C9


def test_c09_reliability_ordering_and_convergence():
    fig5 = DesignConfig(0.0, 0.5, 16.0, 1.0, 0.05)
    odds = PriorOdds(1.0)
    ok = True
    for theta1 in np.concatenate([np.linspace(0.51, 3.0, 250), np.linspace(-3.0, -0.51, 250)]):
        beta = classical_beta(theta1, fig5)
        test_fdr = 1.0 / (1.0 + odds.r * (1.0 - beta) / fig5.alpha)
        ok &= fdr_sgpv(theta1, fig5, odds) <= test_fdr + 1e-12
    fdr_seq, fcr_seq, test_seq = [], [], []
    for n in (20.0, 60.0, 100.0, 400.0):
        cfg = DesignConfig(0.0, 0.5, n, 1.0, 0.05)
        theta1 = 1.0  # theta0 + 2 delta
        fdr_seq.append(fdr_sgpv(theta1, cfg, odds))
        fcr_seq.append(fcr_sgpv(theta1, cfg, odds))
        beta = classical_beta(theta1, cfg)
        test_seq.append(1.0 / (1.0 + odds.r * (1.0 - beta) / cfg.alpha))
    ok &= all(b < a for a, b in zip(fdr_seq, fdr_seq[1:]))
    ok &= all(v is not None for v in fcr_seq)
    ok &= all(b < a for a, b in zip(fcr_seq, fcr_seq[1:]))
    ok &= fdr_seq[-1] < 1e-20 and fcr_seq[-1] < 1e-20
    limit = 0.05 / (0.05 + odds.r)
    ok &= all(abs(t - limit) <= 1e-3 for t in test_seq)
    report("C9 reliability ordering and n-convergence", ok)


# -------------------------------------------------------------------- C10


def test_c10_shrinking_null_limit():
    rng = np.random.default_rng(SEED)
    eps = 1e-9
    ok = True
    for _ in range(100):
        lo = rng.uniform(-5.0, 5.0)
        interval = ExtendedInterval(lo, lo + rng.uniform(0.1, 10.0))
        theta0 = rng.uniform(-6.0, 6.0)
        p = second_gen_p(interval, NullSpec.symmetric(theta0, eps)).p_delta
        want = 0.5 if interval.lo < theta0 < interval.hi else 0.0
        ok &= abs(p - want) <= 1e-6
    report("C10 shrinking-null limit", ok)


# -------------------------------------------------------------------- C11


def test_c11_monotone_transform_invariance():
    rng = np.random.default_rng(SEED + 1)
    ok = True
    checked = 0
    for _ in range(1000):
        a, b = np.sort(rng.uniform(0.01, 8.0, 2))
        c, d = np.sort(rng.uniform(0.01, 8.0, 2))
        if b <= a or d <= c:
            continue
        checked += 1
        p = second_gen_p(ExtendedInterval(a, b), NullSpec.from_interval(c, d)).p_delta
        ep = second_gen_p(
            ExtendedInterval(math.exp(a), math.exp(b)),
            NullSpec.from_interval(math.exp(c), math.exp(d)),
        ).p_delta
        ok &= (p == 0.0) == (ep == 0.0)
        ok &= (p == 1.0) == (ep == 1.0)
    ok &= checked >= 990
    report("C11 exp-transform preserves definitive verdicts", ok, f"{checked} pairs")


# -------------------------------------------------------------------- C12


def test_c12_optional_microarray_counts():
    print("[acceptance] C12 microarray count reproduction: SKIP (optional, "
          "public expression data not bundled; see README for the protocol)")
    pytest.skip("optional criterion: depends on unspecified preprocessing of "
                "an external dataset")
