"""The array kernels agree with the scalar reference rules, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import _p_delta, delta_gap, norm_quantile
from sgpv import std_normal_quantile
from sgpv._normal import norm_quantile_array
from sgpv.core import NullSpec, p_delta_array
from sgpv.errors import InvalidProbability, UnboundedEstimate
from sgpv.intervals import ExtendedInterval
from sgpv.simulate import _uniform_lanes

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
INF = math.inf


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def scalar_quantiles(ps: np.ndarray) -> np.ndarray:
    """The reference AS 241, the former scalar kernel, one probability at a time."""
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

    def test_scalar_is_a_one_row_view(self):
        ps = np.array([5e-324, 2.0**-64, 0.075, 0.5, 0.925, 1.0 - 2.0**-53])
        assert np.array_equal(bits([std_normal_quantile(p) for p in ps.tolist()]),
                              bits(scalar_quantiles(ps)))
        for bad, shown in [(2, "2"), (10**400, "1" + "0" * 400), (math.nan, "nan")]:
            with pytest.raises(InvalidProbability, match=f"must be in \\(0, 1\\), got {shown}$"):
                std_normal_quantile(bad)

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


# Endpoints below 2 in magnitude stay finite when scaled by 2**1023.
TOP_POOL = [-INF, -1.9999999999999998, -1.5, -1.0, 0.0, 1.0, 1.5, 1.9999999999999998, INF]
top_endpoint = st.sampled_from(TOP_POOL) | st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True)


def scaled(ends, k=1023):
    """``ends`` times 2**k: a top draw times 2**1023 may reach the largest double."""
    return tuple(math.ldexp(x, k) for x in ends)


@st.composite
def intervals(draw, finite=False, top=False):
    ends = (st.floats(-3.0, 3.0) | st.sampled_from(POOL[1:-1])) if finite else endpoint
    if top:
        ends = top_endpoint
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

    @PROPERTY
    @given(st.lists(intervals(top=True), min_size=1, max_size=30), intervals(top=True))
    @example([scaled((1e308, 1.7e308), -1023)], scaled((-1.7e308, -1e308), -1023))  # gap 5.71429
    @example([(-1.5, 1.5), (-1.9, 1.0), (1.0, 1.9), (-1.5, INF)], (-0.5, 0.5))
    def test_matches_scalar_rule_near_the_largest_double(self, estimates, null):
        """The draws times 2**1023: any difference of endpoints, the gap
        included, may overflow."""
        check_agreement([scaled(e) for e in estimates], scaled(null))

    def test_one_sided_overlap_of_one_subnormal_step(self):
        # |I ∩ H0| is 2**-1074: halving it first rounds to 0, a wrong "no overlap"
        lo = math.ldexp(0.5 + 2**-53, -1021)
        null = (math.ldexp(-0.5, -1021), math.ldexp(0.5 + 2**-52, -1021))
        p, corrected, gap = p_delta_array([lo], [INF], ExtendedInterval(*null))
        want = 2.0**-1074 / (null[1] - null[0]) / 2
        assert (bits(p).tolist(), corrected.tolist()) == ([bits(want)], [True])
        assert math.isnan(gap[0]) and 0.0 < want < 2**-53

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


def negated(null):
    if isinstance(null, NullSpec):
        return NullSpec(negated(null.interval), null.delta)
    return ExtendedInterval(-null.hi, -null.lo)


@st.composite
def top_nulls(draw):
    """A bare null with endpoints below 2 in magnitude, one-sided ones
    included, or a finite one as a NullSpec with its own delta."""
    lo, hi = draw(intervals(top=True))
    if math.isfinite(lo) and math.isfinite(hi) and draw(st.booleans()):
        return NullSpec(ExtendedInterval(lo, hi), draw(st.floats(1e-300, 1.9) | st.just(0.5)))
    return lo, hi


def as_null(null):
    return null if isinstance(null, NullSpec) else ExtendedInterval(*null)


def scales_exactly(values, k):
    """Whether each finite value times 2**k is finite and exact."""
    finite = [x for x in values if math.isfinite(x)]
    return all(math.frexp(x)[1] + k <= 1024 and math.ldexp(math.ldexp(x, k), -k) == x
               for x in finite)


def scale_null(null, k):
    """``null`` with its endpoints and delta times 2**k; None unless that is
    exact, and for a bare null unless its half is exact at both scales too:
    its half-length is the gap's unit."""
    bare = not isinstance(null, NullSpec)
    ends = (null.lo, null.hi) if bare else (null.interval.lo, null.interval.hi, null.delta)
    if not all(scales_exactly(ends, j) for j in ((k, -1, k - 1) if bare else (k,))):
        return None
    lo, hi, *delta = (math.ldexp(x, k) for x in ends)
    return NullSpec(ExtendedInterval(lo, hi), *delta) if delta else ExtendedInterval(lo, hi)


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
    @given(st.lists(intervals(top=True), min_size=1, max_size=30), top_nulls(),
           st.integers(-1022, 1023) | st.sampled_from([1023, 1022, 1021]))
    @example([(-1.5, 1.5), (-1.9, 1.0), (1.0, 1.9), (-1.5, INF)], (-0.5, 0.5), 1023)
    @example([(-1.9, 1.5), (-1.0, 1.5)], NullSpec.from_interval(-1.9, 1.5), 1023)
    @example([(-INF, 1.5), (1.0, 1.9)], (-1.5, INF), 1023)
    @example([(-1.5, 1.5), (1.0, INF), (1.25, 1.5)], (-0.5, 1.5), -1019)
    @example([(0.5 + 2**-53, INF)], (-0.5, 0.5 + 2**-52), -1021)  # one subnormal step of overlap
    def test_scaling_by_a_power_of_two(self, estimates, null, k):
        """Every term of the rule compares or divides differences of endpoints,
        so multiplying all endpoints by 2**k changes nothing, up to the largest
        double. Rows whose endpoints overflow or lose bits to the subnormals
        are left out, and so is a bare null whose half can round there: its
        half-length is the gap's unit."""
        null = as_null(null)
        scaled_null = scale_null(null, k)
        estimates = [e for e in estimates if scales_exactly(e, k)]
        if scaled_null is None or not estimates:
            return
        lo, hi = endpoints(estimates)
        want = p_delta_array(lo, hi, null)
        got = p_delta_array(np.ldexp(lo, k), np.ldexp(hi, k), scaled_null)
        for g, w in zip(got, want):
            assert bits(g).tolist() == bits(w).tolist(), (estimates, null, k)

    @PROPERTY
    @given(st.lists(intervals(top=True), min_size=1, max_size=30), top_nulls())
    @example([(-1.5, 1.5), (-1.9, 1.0), (1.0, 1.9), (-1.5, INF)], (-0.5, 0.5))
    def test_negation_at_the_top_exponent(self, estimates, null):
        estimates = [e for e in estimates if scales_exactly(e, 1023)]
        null = scale_null(as_null(null), 1023)
        if null is None or not estimates:
            return
        lo, hi = (np.ldexp(x, 1023) for x in endpoints(estimates))
        p, corrected, gap = p_delta_array(lo, hi, null)
        neg_p, neg_corrected, neg_gap = p_delta_array(-hi, -lo, negated(null))
        assert bits(neg_p).tolist() == bits(p).tolist()
        assert neg_corrected.tolist() == corrected.tolist()
        assert np.array_equal(neg_gap, -gap, equal_nan=True)

    @PROPERTY
    @given(st.lists(intervals(), min_size=1, max_size=30), null_specs())
    @example([UNDERFLOW, (0.0, 0.0), (0.5, 0.5), (0.5, 1.0), (-INF, INF)],
             NullSpec.symmetric(0.0, 0.5))
    # touching a null whose length overflows, with a delta that halves to 0
    @example([(1e308, 1.5e308), (-1.5e308, -1e308)],
             NullSpec(ExtendedInterval(-1e308, 1e308), 5e-324))
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
