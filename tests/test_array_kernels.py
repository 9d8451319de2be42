"""The array kernels agree with the scalar reference rules, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgpv._normal import norm_quantile, norm_quantile_array
from sgpv.core import _p_delta, p_delta_array
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


@st.composite
def intervals(draw, finite=False):
    ends = (st.floats(-3.0, 3.0) | st.sampled_from(POOL[1:-1])) if finite else endpoint
    lo, hi = sorted((draw(ends), draw(ends)))
    if lo == hi and math.isinf(lo):
        lo, hi = (-INF, hi) if hi > 0 else (lo, INF)
    return lo, hi


def check_agreement(estimates, null):
    lo = np.array([e[0] for e in estimates])
    hi = np.array([e[1] for e in estimates])
    p, corrected = p_delta_array(lo, hi, *null)
    h = ExtendedInterval(*null)
    for k, (a, b) in enumerate(estimates):
        i = ExtendedInterval(a, b)
        if math.isinf(a) and math.isinf(b):
            with pytest.raises(UnboundedEstimate):
                _p_delta(i, h)
            assert math.isnan(p[k]) and not corrected[k]
            continue
        want_p, want_corrected = _p_delta(i, h)
        assert bits(p[k]) == bits(want_p), (i, h, p[k], want_p)
        assert corrected[k] == want_corrected, (i, h)


class TestPDeltaArray:
    @PROPERTY
    @given(st.lists(intervals(), min_size=1, max_size=30), intervals(finite=True))
    @example([(0.0, 1.0), (1.0, 2.0), (-1.0, -0.5), (-0.5, 0.5)], (-0.5, 0.5))  # touching
    @example([(-3.0, 3.0), (-1.0, 1.0), (-1.0, 0.0), (0.0, 0.0)], (0.0, 0.0))  # point null
    @example([(-INF, INF), (-INF, 0.0), (0.5, INF), (-2.0, 2.0)], (-0.5, 0.5))  # whole line
    @example([(-2.0, 2.0), (-1.0, 1.0), (-1.5, 1.0)], (-0.5, 0.5))  # reset at exactly 2|H0|
    def test_matches_scalar_rule(self, estimates, null):
        check_agreement(estimates, null)

    @PROPERTY
    @given(st.lists(intervals(), min_size=1, max_size=30), intervals())
    @example([(-INF, 0.0), (0.0, INF), (1.0, INF), (-INF, -1.0)], (0.0, INF))
    def test_matches_scalar_rule_for_one_sided_nulls(self, estimates, null):
        check_agreement(estimates, null)

    def test_whole_line_is_flagged_not_raised(self):
        p, corrected = p_delta_array([-INF, 0.0], [INF, 1.0], -0.5, 0.5)
        assert math.isnan(p[0]) and not corrected[0]
        assert p[1] == 0.5 and not corrected[1]
