"""The closed-form curve kernels agree with the scalar reference, bit for bit.

``oracles`` holds the scalar design and reliability code, one Python call
per grid point. The array kernels and every one-row view must return the
same doubles (the sign of zero included), the same None for an undefined
FCR, and raise the same error at the same first point. The last class
checks the closed forms against the seeded Monte Carlo oracle within a
binomial bound.
"""

import math
import struct
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sgpv import _normal
from sgpv._normal import norm_cdf, norm_cdf_array
from sgpv.design import (
    DesignConfig,
    outcome_probs,
    outcome_probs_array,
    prob_alt,
    prob_inconclusive,
    prob_null,
)
from sgpv.errors import InvalidProbability, InvalidProportion, InvalidScale
from sgpv.reliability import (
    PriorOdds,
    classical_beta,
    classical_power,
    fcr_sgpv,
    fdr_sgpv,
    fdr_test,
    fnr_test,
    reliability_rates_array,
)
from sgpv.simulate import SimConfig, simulate_outcomes, simulate_reliability

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
INF = math.inf
BENCH = DesignConfig(0.0, 0.5, 16.0, 1.0)


def same(a, b) -> bool:
    """Equal as doubles bit for bit (any NaN equals any NaN), or both None."""
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return type(a) is type(b) and struct.pack("<d", a) == struct.pack("<d", b)


def outcome(fn, *args):
    """(value, None) or (None, (error type, message))."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - any error must match the oracle's
        return None, (type(exc), str(exc))


def same_rows(got, want) -> bool:
    return len(got) == len(want) and all(
        len(g) == len(w) and all(same(x, y) for x, y in zip(g, w)) for g, w in zip(got, want)
    )


def kernel_rows(kernel, *args):
    """A curve kernel's columns as one tuple of Python values per grid point."""
    return list(zip(*(column.tolist() for column in kernel(*args))))


# ---------------------------------------------------------------- strategies

SPECIAL_THETAS = [INF, -INF, 1e308, -1e308, 0.0, -0.0, 5e-324, 0.5, -0.5, 12.0, -12.0]
THETAS = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(allow_nan=False),
    st.sampled_from(SPECIAL_THETAS),
)
GRIDS = st.lists(THETAS, min_size=1, max_size=12)
ALPHAS = st.one_of(
    st.floats(1e-12, 1.0 - 1e-12),
    st.sampled_from([1e-300, 1e-16, 0.01, 0.05, 0.2, 1.0 - 1e-16, 1.0 - 2.0**-53]),
)
ODDS = st.one_of(st.floats(1e-300, 1e300), st.sampled_from([5e-324, 1e-300, 0.25, 1.0, 1e300]))


@st.composite
def designs(draw):
    theta0 = draw(st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, -3.0])))
    n = draw(st.one_of(st.floats(1.0, 1e6), st.sampled_from([1.0, 3.0, 16.0, 1e6])))
    variance = draw(st.one_of(st.floats(1e-4, 1e4), st.sampled_from([0.5, 1.0])))
    alpha = draw(ALPHAS)
    cfg = DesignConfig(theta0, 1.0, n, variance, alpha)
    gate = draw(st.sampled_from(["free", "zero", "equal", "just open"]))
    if gate == "zero":
        return replace(cfg, delta=0.0)
    if gate != "free":
        try:  # the nesting gate at exact equality, delta == z * se, or one ulp above
            edge = cfg.z_crit * cfg.se
        except InvalidProbability:  # z does not exist at this alpha
            return cfg
        return replace(cfg, delta=edge if gate == "equal" else math.nextafter(edge, INF))
    return replace(cfg, delta=draw(st.floats(0.0, 20.0)))


# ------------------------------------------------------------------- layer 1


class TestNormCdfArray:
    @PROPERTY
    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(-40.0, 40.0),
        st.sampled_from([INF, -INF, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                         38.0, -38.0, 38.5, -38.5, 40.0, -40.0, 1e308, -1e308]),
    )))
    def test_bitwise_equal_to_scalar(self, xs):
        got = norm_cdf_array(np.array(xs, dtype=float)).tolist()
        assert all(same(g, norm_cdf(x)) for g, x in zip(got, xs))
        assert len(got) == len(xs)


# ------------------------------------------------------------------- layer 3


class TestOutcomeKernel:
    @PROPERTY
    @given(designs(), GRIDS)
    @example(BENCH, [0.0, INF, 1e308, -1e308, 0.5, -0.5])
    @example(DesignConfig(0.0, 0.0, 16.0, 1.0, 0.01), [-1.0, 0.0, 0.25, INF])
    def test_curve_and_views_match_oracle(self, cfg, grid):
        got, got_err = outcome(kernel_rows, outcome_probs_array, np.array(grid), cfg)
        want, want_err = outcome(oracles.power_curve, cfg, grid)
        assert got_err == want_err
        assert want is None or same_rows(got, want)
        for theta in grid:
            for view, reference in (
                (prob_alt, oracles.prob_alt),
                (prob_null, oracles.prob_null),
                (prob_inconclusive, oracles.prob_inconclusive),
            ):
                g, g_err = outcome(view, theta, cfg)
                w, w_err = outcome(reference, theta, cfg)
                assert g_err == w_err
                assert g_err is not None or same(g, w)
            g, g_err = outcome(outcome_probs, theta, cfg)
            w, w_err = outcome(oracles.outcome_probs, theta, cfg)
            assert g_err == w_err
            assert g_err is not None or same_rows([astuple(g)], [astuple(w)])

    @PROPERTY
    @given(designs(), GRIDS, st.data())
    def test_same_first_failing_point(self, cfg, grid, data):
        at = data.draw(st.integers(0, len(grid)))
        grid = grid[:at] + [math.nan] + grid[at:]
        got_err = outcome(outcome_probs_array, np.array(grid), cfg)[1]
        assert got_err is not None
        assert got_err == outcome(oracles.power_curve, cfg, grid)[1]

    def test_nan_point_raises_the_scalar_message(self):
        with pytest.raises(InvalidProportion, match=r"^p_alt must lie in \[0, 1\], got nan$"):
            outcome_probs_array(np.array([0.0, math.nan, 1.0]), BENCH)

    @PROPERTY
    @given(designs(), st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
    def test_partitions_unity(self, cfg, grid):
        try:
            columns = outcome_probs_array(np.array(grid), cfg)
        except InvalidProbability:  # z does not exist at this alpha
            return
        total = columns[0] + columns[1] + columns[2]
        assert np.all(np.abs(total - 1.0) <= 1e-10)
        assert all(np.all((c >= 0.0) & (c <= 1.0)) for c in columns)

    def test_zero_standard_error_is_rejected(self):
        with pytest.raises(InvalidScale, match="underflows to 0"):
            DesignConfig(0.0, 0.5, 1e300, 5e-324)

    def test_infinite_standard_error_is_rejected(self):
        with pytest.raises(InvalidScale, match=r"sqrt\(variance / n\) overflows"):
            DesignConfig(0.0, 1.0, 1e-10, 1e308)

    def test_benchmark_grid_warns_nothing(self):
        grid = np.linspace(-12.0, 12.0, 5000)
        with np.errstate(all="raise"):
            outcome_probs_array(np.append(grid, [1e308, -1e308, INF]), BENCH)
            reliability_rates_array(np.append(grid, [1e308, -1e308, INF]), BENCH, PriorOdds(1.0))


class TestReliabilityKernel:
    @PROPERTY
    @given(designs(), GRIDS, ODDS)
    @example(BENCH, [0.0, INF, 1e308, -1e308, 0.5, -0.5], 1.0)
    @example(DesignConfig(-3.0, 2.0, 3.0, 0.5, 0.2), [-400.0, -0.8, 0.0, 0.4, 400.0], 1e-300)
    @example(DesignConfig(0.0, 1.0, 1e6, 1.0), [0.0, 0.5], 1.0)  # degenerate, gate open
    @example(DesignConfig(0.0, 0.5, 5.0, 1.0), [0.0, 0.5, INF], 1.0)  # gate closed
    def test_curve_and_views_match_oracle(self, cfg, grid, r):
        odds = PriorOdds(r)
        got, got_err = outcome(kernel_rows, reliability_rates_array, np.array(grid), cfg, odds)
        want, want_err = outcome(oracles.reliability_curve, cfg, odds, grid)
        assert got_err == want_err
        assert want is None or same_rows(got, want)
        for theta1 in grid:
            for view, reference, args in (
                (fdr_sgpv, oracles.fdr_sgpv, (theta1, cfg, odds)),
                (fcr_sgpv, oracles.fcr_sgpv, (theta1, cfg, odds)),
                (classical_beta, oracles.classical_beta, (theta1, cfg)),
                (classical_power, oracles.classical_power, (theta1, cfg)),
            ):
                g, g_err = outcome(view, *args)
                w, w_err = outcome(reference, *args)
                assert g_err == w_err
                assert g_err is not None or same(g, w)

    @PROPERTY
    @given(ODDS, st.floats(1e-300, 1.0, exclude_max=True), st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([5e-324, 1e-300, 1.0 - 2.0**-53]),
    ))
    def test_test_rates_match_oracle(self, r, alpha, beta):
        odds = PriorOdds(r)
        want = oracles._test_rates(odds, alpha, beta)
        assert same(fdr_test(odds, alpha, beta), want[0])
        assert same(fnr_test(odds, alpha, beta), want[1])

    def test_fcr_column_is_none_when_the_gate_is_closed(self):
        columns = reliability_rates_array(np.array([0.0, 1.0]), DesignConfig(0.0, 0.5, 5.0, 1.0),
                                          PriorOdds(1.0))
        assert columns[1].tolist() == [None, None]

    def test_fcr_view_does_not_check_the_discovery_mass(self):
        # fdr_sgpv is undefined at this design, fcr_sgpv is not
        cfg = DesignConfig(0.0, 1.0, 1e6, 1.0)
        assert same(fcr_sgpv(0.5, cfg, PriorOdds(1.0)), oracles.fcr_sgpv(0.5, cfg, PriorOdds(1.0)))


class TestNormalPasses:
    """Each normal tail is evaluated once per point, and the z-test is the delta = 0
    call of the one outcome kernel: the elements the kernels hand to norm_cdf_array."""

    GRID = np.linspace(-3.0, 3.0, 101)

    @staticmethod
    def passes(monkeypatch, kernel, *args) -> int:
        seen, cdf = [], _normal.norm_cdf_array
        monkeypatch.setattr(_normal, "norm_cdf_array", lambda x: seen.append(np.size(x)) or cdf(x))
        kernel(*args)
        monkeypatch.undo()
        return sum(seen)

    @pytest.mark.parametrize("n, per_point", [(16.0, 5), (5.0, 3)],
                             ids=["gate-open", "gate-closed"])
    def test_outcome_kernel(self, monkeypatch, n, per_point):
        cfg = DesignConfig(0.0, 0.5, n, 1.0)
        assert self.passes(monkeypatch, outcome_probs_array, self.GRID, cfg) == (
            per_point * self.GRID.size)

    @pytest.mark.parametrize("n, per_point, theta0_rows", [(16.0, 8, 5), (5.0, 6, 3)],
                             ids=["gate-open", "gate-closed"])
    def test_reliability_kernel(self, monkeypatch, n, per_point, theta0_rows):
        cfg, odds = DesignConfig(0.0, 0.5, n, 1.0), PriorOdds(1.0)
        # the outcome kernel's one row at theta0, which also gives the discovery mass
        assert self.passes(monkeypatch, reliability_rates_array, self.GRID[:0], cfg, odds) == (
            theta0_rows)
        assert self.passes(monkeypatch, reliability_rates_array, self.GRID, cfg, odds) == (
            per_point * self.GRID.size + theta0_rows)


# ------------------------------------------------------- Monte Carlo oracle

REPLICATES = 4000
MC_CASES = [
    # (theta0, delta, n, variance, alpha, theta1, r, seed)
    (0.0, 0.5, 16.0, 1.0, 0.05, 0.6, 1.0, 11),
    (0.0, 0.5, 16.0, 1.0, 0.05, 1.0, 4.0, 12),
    (0.0, 0.3, 100.0, 1.0, 0.05, 0.35, 0.5, 13),
    (0.0, 0.5, 5.0, 1.0, 0.05, 1.0, 1.0, 14),  # gate closed
    (0.0, 0.5, 3.0, 1.0, 0.2, 0.7, 1.0, 15),
    (-3.0, 2.0, 3.0, 0.5, 0.2, -0.5, 2.0, 16),
]


def binomial_bound(p: float, size: int) -> float:
    return 5.0 * math.sqrt(p * (1.0 - p) / size) + 1.0 / size


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize("case", MC_CASES)
    def test_outcome_probs(self, case):
        theta0, delta, n, variance, alpha, theta1, _, seed = case
        cfg = DesignConfig(theta0, delta, n, variance, alpha)
        for theta in (theta0, theta1, theta0 + delta):
            probs = outcome_probs(theta, cfg)
            sim = simulate_outcomes(SimConfig(cfg, theta, REPLICATES, seed))
            for name in ("p_alt", "p_null", "p_inconclusive"):
                p = getattr(probs, name)
                assert abs(getattr(sim.empirical, name) - p) <= binomial_bound(p, REPLICATES)

    @pytest.mark.parametrize("case", MC_CASES)
    def test_fdr_and_fcr(self, case):
        theta0, delta, n, variance, alpha, theta1, r, seed = case
        cfg, odds = DesignConfig(theta0, delta, n, variance, alpha), PriorOdds(r)
        sim = simulate_reliability(SimConfig(cfg, theta0, REPLICATES, seed), odds, theta1)
        fdr = fdr_sgpv(theta1, cfg, odds)
        assert abs(sim.empirical_fdr - fdr) <= binomial_bound(fdr, sim.n_discoveries)
        fcr = fcr_sgpv(theta1, cfg, odds)
        if fcr is None:
            assert (sim.empirical_fcr, sim.n_confirmations) == (None, 0)
        else:
            assert abs(sim.empirical_fcr - fcr) <= binomial_bound(fcr, sim.n_confirmations)
