"""The array kernels agree with the scalar reference rules, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import _p_delta, delta_gap
from sgpv._normal import norm_quantile, norm_quantile_array
from sgpv.core import NullSpec, p_delta_array
from sgpv.errors import InvalidProbability, UnboundedEstimate
from sgpv.intervals import ExtendedInterval
from sgpv.simulate import _uniform_lanes

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
INF = math.inf


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def scalar_quantiles(ps: np.ndarray) -> np.ndarray:
    return np.array([norm_quantile(float(p)) for p in ps], dtype=float)


class TestQuantileArray:
    @PROPERTY
    @given(
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**40),
        count=st.integers(1, 400),
    )
    def test_bitwise_equal_on_philox_lanes(self, seed, start, count):
        u = _uniform_lanes(seed, start, count).ravel()
        assert np.array_equal(bits(norm_quantile_array(u)), bits(scalar_quantiles(u)))

    @PROPERTY
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1))
    def test_bitwise_equal_on_any_probability(self, ps):
        ps = np.array(ps)
        assert np.array_equal(bits(norm_quantile_array(ps)), bits(scalar_quantiles(ps)))

    def test_bitwise_equal_at_branch_edges(self):
        edges = [2.0**-64, 1.0 - 2.0**-53, 0.5, 0.075, 0.925, math.exp(-25.0),
                 1.0 - math.exp(-25.0), 5e-324, 0.25]
        ps = np.array(
            edges
            + [math.nextafter(p, 0.0) for p in edges if p > 5e-324]
            + [math.nextafter(p, 1.0) for p in edges if p < 1.0 - 2.0**-53]
        )
        assert np.array_equal(bits(norm_quantile_array(ps)), bits(scalar_quantiles(ps)))

    def test_bitwise_equal_where_a_vectorised_log_is_off_by_one_ulp(self):
        # Tail draws (seed 7) where np.log differs from math.log in the last
        # bit on AVX-512 builds of numpy, enough to change the quantile.
        ps = np.array([
            0.03008727716365256, 0.9610324614311914, 0.9258181961207431,
            0.015913894229739545, 0.07335890507766918, 0.04731309277071094,
        ])
        assert np.array_equal(bits(norm_quantile_array(ps)), bits(scalar_quantiles(ps)))

    def test_keeps_shape(self):
        u = _uniform_lanes(5, 0, 6)
        assert norm_quantile_array(u).shape == (6, 4)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_rejects_outside_open_unit_interval(self, bad):
        with pytest.raises(InvalidProbability):
            norm_quantile_array(np.array([0.3, bad, 0.7]))


# A small pool of endpoints forces exact ties, touching endpoints and
# infinities; free floats cover the generic overlaps.
POOL = [-INF, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, INF]
endpoint = st.one_of(st.sampled_from(POOL), st.floats(-3.0, 3.0))
# An overlap of one ulp below 0.5 against an estimate of length 1.5e308:
# |I ∩ H0| / |I| underflows to 0, so p_delta is 0 although the intervals overlap.
UNDERFLOW = (math.nextafter(0.5, 0.0), 1.5e308)


@st.composite
def intervals(draw, finite=False):
    ends = (st.floats(-3.0, 3.0) | st.sampled_from(POOL[1:-1])) if finite else endpoint
    lo, hi = sorted((draw(ends), draw(ends)))
    if lo == hi and math.isinf(lo):
        lo, hi = (-INF, hi) if hi > 0 else (lo, INF)
    return lo, hi


def endpoints(estimates):
    return np.array([e[0] for e in estimates]), np.array([e[1] for e in estimates])


def delta_unit(null):
    """The NullSpec a bare null implies, or None when it has no delta unit."""
    h = ExtendedInterval(*null)
    return NullSpec.from_interval(*null) if h.is_finite and h.hi > h.lo else None


def check_agreement(estimates, null):
    lo, hi = endpoints(estimates)
    h = ExtendedInterval(*null)
    spec = delta_unit(null)
    p, corrected, gap = p_delta_array(lo, hi, h)
    if spec is not None:
        # a NullSpec and the bare interval it was built from agree exactly
        for got, want in zip(p_delta_array(lo, hi, spec), (p, corrected, gap)):
            assert bits(got).tolist() == bits(want).tolist()
    for k, (a, b) in enumerate(estimates):
        i = ExtendedInterval(a, b)
        if math.isinf(a) and math.isinf(b):
            with pytest.raises(UnboundedEstimate):
                _p_delta(i, h)
            assert math.isnan(p[k]) and not corrected[k] and math.isnan(gap[k])
            continue
        want_p, want_corrected = _p_delta(i, h)
        assert bits(p[k]) == bits(want_p), (i, h, p[k], want_p)
        assert corrected[k] == want_corrected, (i, h)
        if want_p != 0.0 or spec is None:
            assert math.isnan(gap[k]), (i, h, gap[k])
            continue
        want_gap = delta_gap(i, spec)
        if want_gap is None:
            # the reference drops the gap of an overlap whose p_delta
            # underflows to 0; the kernel reports 0 there
            want_gap = 0.0
        assert bits(gap[k]) == bits(want_gap), (i, h, gap[k], want_gap)


class TestPDeltaArray:
    @PROPERTY
    @given(st.lists(intervals(), min_size=1, max_size=30), intervals(finite=True))
    @example([(0.0, 1.0), (1.0, 2.0), (-1.0, -0.5), (-0.5, 0.5)], (-0.5, 0.5))  # touching
    @example([(-3.0, 3.0), (-1.0, 1.0), (-1.0, 0.0), (0.0, 0.0)], (0.0, 0.0))  # point null
    @example([(-INF, INF), (-INF, 0.0), (0.5, INF), (-2.0, 2.0)], (-0.5, 0.5))  # whole line
    @example([(-2.0, 2.0), (-1.0, 1.0), (-1.5, 1.0)], (-0.5, 0.5))  # reset at exactly 2|H0|
    @example([(0.0, 0.0), (0.5, 0.5), (-INF, -0.5), (1.0, INF)], (-0.5, 0.5))  # points, rays
    @example([UNDERFLOW, (-UNDERFLOW[1], -UNDERFLOW[0])], (-0.5, 0.5))
    def test_matches_scalar_rule(self, estimates, null):
        check_agreement(estimates, null)

    @PROPERTY
    @given(st.lists(intervals(), min_size=1, max_size=30), intervals())
    @example([(-INF, 0.0), (0.0, INF), (1.0, INF), (-INF, -1.0)], (0.0, INF))
    def test_matches_scalar_rule_for_one_sided_nulls(self, estimates, null):
        check_agreement(estimates, null)

    def test_whole_line_is_flagged_not_raised(self):
        p, corrected, gap = p_delta_array([-INF, 0.0], [INF, 1.0], ExtendedInterval(-0.5, 0.5))
        assert math.isnan(p[0]) and not corrected[0] and math.isnan(gap[0])
        assert p[1] == 0.5 and not corrected[1] and math.isnan(gap[1])

    def test_symmetric_null_uses_its_own_delta(self):
        # 2.3 +- 0.2 has half-length 0.20000000000000018, not 0.2
        spec = NullSpec.symmetric(2.3, 0.2)
        _, _, gap = p_delta_array([3.0], [3.5], spec)
        assert gap[0] == 2.5
        _, _, gap = p_delta_array([3.0], [3.5], spec.interval)
        assert gap[0] == 2.499999999999998


@st.composite
def null_specs(draw):
    center = draw(st.floats(-2.0, 2.0) | st.sampled_from(POOL[2:-2]))
    delta = draw(st.floats(1e-3, 2.0) | st.sampled_from([0.5, 1.0]))
    return NullSpec.symmetric(center, delta)


def negated(spec):
    return NullSpec(ExtendedInterval(-spec.interval.hi, -spec.interval.lo), spec.delta)


class TestPDeltaArrayInvariants:
    @PROPERTY
    @given(st.lists(intervals(), min_size=1, max_size=30), null_specs())
    @example([(0.0, 1.0), (-1.0, -0.5), (-INF, -0.5), (0.5, INF), UNDERFLOW],
             NullSpec.symmetric(0.0, 0.5))
    @example([(-1.0, -0.0), (-0.0, 0.0), (-2.0, 0.0)], NullSpec.symmetric(0.5, 0.5))  # signed zeros
    def test_negation(self, estimates, spec):
        lo, hi = endpoints(estimates)
        p, corrected, gap = p_delta_array(lo, hi, spec)
        neg_p, neg_corrected, neg_gap = p_delta_array(-hi, -lo, negated(spec))
        assert bits(neg_p).tolist() == bits(p).tolist()
        assert neg_corrected.tolist() == corrected.tolist()
        assert np.array_equal(neg_gap, -gap, equal_nan=True)

    @PROPERTY
    @given(st.lists(intervals(), min_size=1, max_size=30), null_specs())
    @example([UNDERFLOW, (0.0, 0.0), (0.5, 0.5), (0.5, 1.0), (-INF, INF)],
             NullSpec.symmetric(0.0, 0.5))
    def test_gap_present_exactly_when_p_delta_is_zero(self, estimates, spec):
        p, _, gap = p_delta_array(*endpoints(estimates), spec)
        assert (~np.isnan(gap)).tolist() == (p == 0.0).tolist()

    @PROPERTY
    @given(st.lists(intervals(), min_size=1, max_size=30), intervals(finite=True) | intervals())
    @example([(-2.0, 2.0), (-INF, 0.0), (-5.0, INF)], (-0.5, 0.5))
    def test_reset_implies_at_most_half(self, estimates, null):
        p, corrected, _ = p_delta_array(*endpoints(estimates), ExtendedInterval(*null))
        assert (p[corrected] <= 0.5).all()

    def test_no_delta_unit_no_gap(self):
        lo, hi = np.array([2.0, -3.0, 0.0]), np.array([3.0, -2.0, 0.5])
        for null in [(0.0, 0.0), (1.0, INF), (-INF, -1.0), (-1e308, 1.7e308)]:
            p, _, gap = p_delta_array(lo, hi, ExtendedInterval(*null))
            assert np.isnan(gap).all(), null
