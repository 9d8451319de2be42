"""Each interval, verdict and design rule has one owner; its callers agree with it.

The array validity mask, the z endpoints, the verdict codes, the design's
half-width and the null's half-length are each stated once in the library.
These properties check every form against the scalar rule it replaces
(``ExtendedInterval`` itself, or the restatement kept in ``oracles``), on
floats that include NaN, infinities, equal endpoints and subnormals.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sgpv import reliability
from sgpv.core import CLASSES, NullSpec, classify, classify_codes, p_delta_array
from sgpv.design import DesignConfig, prob_null
from sgpv.errors import InvalidInterval, InvalidProportion
from sgpv.intervals import ExtendedInterval, invalid_intervals, z_endpoints, z_interval
from sgpv.reliability import PriorOdds
from sgpv.simulate import _p_deltas

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
INF = math.inf
TINY = 5e-324  # the smallest subnormal
SPECIAL = [math.nan, -INF, INF, 0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308,
           1.5e-323, 1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
# any double, NaN and infinities included, with the edge values drawn often
anything = st.floats() | st.sampled_from(SPECIAL)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL[3:])
subnormal = st.integers(-2**52 + 1, 2**52 - 1).map(lambda k: k * TINY)


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def rejects(lo: float, hi: float) -> bool:
    try:
        ExtendedInterval(lo, hi)
    except InvalidInterval:
        return True
    return False


@PROPERTY
@given(st.lists(st.tuples(anything, anything), min_size=1, max_size=20))
@example([(x, y) for x in SPECIAL for y in SPECIAL])
def test_validity_mask_marks_exactly_what_extended_interval_rejects(pairs):
    lo, hi = (np.array(column, dtype=float) for column in zip(*pairs))
    assert invalid_intervals(lo, hi).tolist() == [rejects(a, b) for a, b in pairs]


levels = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from([0.95, 0.5])


@PROPERTY
@given(st.lists(st.tuples(anything, anything), min_size=1, max_size=20), levels)
@example([(1e308, 1e308), (-INF, 1.0), (INF, INF), (0.0, TINY), (1.0, math.nan)], 0.95)
def test_z_endpoints_equal_z_intervals_arithmetic(rows, level):
    estimate, se = (np.array(column, dtype=float) for column in zip(*rows))
    lo, hi = z_endpoints(estimate, se, level)
    want = [oracles.z_endpoints(e, s, level) for e, s in rows]
    assert bits(lo) == bits([w[0] for w in want]) and bits(hi) == bits([w[1] for w in want])
    for (e, s), w in zip(rows, want):  # floats in, floats out, and the interval on them
        assert bits(z_endpoints(e, s, level)) == bits(w)
        if s > 0.0 and not rejects(*w):
            assert bits([*vars(z_interval(e, s, level)).values()]) == bits(w)


proportions = (st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0, TINY, 1.0 - 2**-53])
               | anything)


@PROPERTY
@given(proportions)
def test_classify_is_its_range_check_then_the_codes(p):
    try:
        want = oracles.classify(p)
    except InvalidProportion as exc:
        with pytest.raises(InvalidProportion) as raised:
            classify(p)
        assert raised.value.args == exc.args
        return
    assert classify(p) is want is CLASSES[classify_codes(np.array([p]))[0]]


designs = st.builds(
    DesignConfig,
    theta0=st.floats(-3.0, 3.0),
    delta=st.floats(0.0, 2.0) | st.just(0.0),
    n=st.floats(1.0, 1e4),
    variance=st.floats(0.01, 10.0),
    alpha=st.floats(0.001, 0.5) | st.just(0.05),
)


def gate_closed(cfg: DesignConfig) -> bool:
    return cfg.delta <= cfg.z_crit * cfg.se


@PROPERTY
@given(designs, st.booleans(), st.floats(-5.0, 5.0))
def test_design_half_width_reproduces_the_three_gates(cfg, on_the_edge, theta):
    if on_the_edge:  # delta equal to the half-width: nesting has probability zero
        cfg = DesignConfig(cfg.theta0, cfg.z_crit * cfg.se, cfg.n, cfg.variance, cfg.alpha)
    assert bits(cfg.estimate_half_width) == bits(cfg.z_crit * cfg.se)
    # design: the nesting gate
    assert bits(prob_null(theta, cfg)) == bits(oracles.prob_null(theta, cfg))
    if gate_closed(cfg):
        assert prob_null(theta, cfg) == 0.0
    # reliability: the FCR gate
    odds = PriorOdds(1.0)
    assert (reliability.fcr_sgpv(theta, cfg, odds) is None) == gate_closed(cfg)
    # simulate: the interval of each replicate
    theta_hats = np.array([theta, cfg.theta0, cfg.theta0 + cfg.delta])
    half = cfg.z_crit * cfg.se
    want, _, _ = p_delta_array(theta_hats - half, theta_hats + half, cfg.null_interval)
    assert bits(_p_deltas(theta_hats, cfg)) == bits(want)


@PROPERTY
@given(finite | subnormal, finite | subnormal)
@example(0.0, 3 * TINY)
@example(TINY, 3 * TINY)
@example(-1e308, 1e308)
@example(-1.7976931348623157e308, 1.7976931348623157e308)
def test_null_half_length(a, b):
    lo, hi = sorted((a, b))
    if not lo < hi:
        return
    want = oracles.half_length(lo, hi)
    if want == 0.0:  # half of one subnormal step rounds to zero
        with pytest.raises(InvalidInterval):
            NullSpec.from_interval(lo, hi)
        return
    assert bits(NullSpec.from_interval(lo, hi).delta) == bits(want)
    if math.isfinite(hi - lo):  # as the length formula gave it, bit for bit
        assert bits(want) == bits(0.5 * (hi - lo))


def estimates_near(lo: float, hi: float):
    """Estimate endpoints drawn about a null: its edges, their neighbours, infinities."""
    ends = [lo, hi, math.nextafter(lo, -INF), math.nextafter(hi, INF), 0.5 * lo + 0.5 * hi,
            -INF, INF, 0.0, TINY, -TINY]
    return st.lists(st.tuples(st.sampled_from(ends) | finite | subnormal,
                              st.sampled_from(ends) | finite | subnormal),
                    min_size=1, max_size=20)


@PROPERTY
@given(st.data(), st.tuples(finite | subnormal, finite | subnormal))
@example(None, (0.0, 3 * TINY))
def test_p_delta_against_nulls_of_any_finite_size(data, null):
    """Bit for bit the scalar rule where the null's length is finite; within a few
    ulps of exact arithmetic where it overflows. Estimates whose own length
    overflows are left out: the rule treats them as one-sided."""
    lo, hi = sorted(null)
    if not lo < hi:
        return
    if data is None:
        pairs = [(0.0, 7 * TINY), (0.0, INF), (TINY, INF), (-INF, 2 * TINY), (0.0, 3 * TINY)]
    else:
        pairs = data.draw(estimates_near(lo, hi))
    pairs = [tuple(sorted(pair)) for pair in pairs]
    pairs = [(a, b) for a, b in pairs if not rejects(a, b) and not (math.isinf(a) and math.isinf(b))
             and (math.isfinite(b - a) or math.isinf(a) or math.isinf(b))]
    if not pairs:
        return
    h = ExtendedInterval(lo, hi)
    p, corrected, _ = p_delta_array(*(np.array(column) for column in zip(*pairs)), h)
    for k, pair in enumerate(pairs):
        want_p, want_corrected = oracles._p_delta(ExtendedInterval(*pair), h)
        assert corrected[k] == want_corrected, (pair, h)
        if math.isfinite(hi - lo):
            assert bits(p[k]) == bits(want_p), (pair, h, p[k], want_p)
        else:
            assert (p[k] == 0.0, p[k] == 1.0) == (want_p == 0.0, want_p == 1.0)
            assert p[k] == pytest.approx(want_p, rel=4 * 2**-52), (pair, h)
