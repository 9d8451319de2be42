"""The array two-group t-test against the scalar scipy.stats reference.

``two_sample_ci_array`` and its one-row view ``two_sample_ci`` must give
the reference's (estimate, lo, hi, p) bit for bit and reject exactly the
rows it rejects; the CLI built on the array call must report the
earliest failing line as the per-row code did.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sgpv.cli import main
from sgpv.errors import InvalidProbability, InvalidSummary, SgpvError
from sgpv.intervals import ExtendedInterval
from sgpv.screening import GroupSummary, invalid_summaries, two_sample_ci, two_sample_ci_array

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
GROUP_HEADER = "id,n1,mean1,sd1,n2,mean2,sd2\n"

# Group sizes around the 2**53 edge of exact float sums, far beyond it up
# to the largest double (where the pooled df overflows) and ordinary ones.
SIZES = st.one_of(
    st.integers(2, 60),
    st.integers(2**53 - 4, 2**53 + 4),
    st.integers(2, 2**64),
    st.integers(2, 10**300),
    st.integers(2, int(sys.float_info.max)),
    st.sampled_from([0, 1, -3, int(1e308), int(sys.float_info.max), math.nan]),
)
# Two groups of this size have a pooled df n1 + n2 - 2 beyond the largest double.
TOP = int(1e308)
# Sds whose squares underflow, overflow or lose precision, plus ordinary ones.
SDS = st.one_of(
    st.floats(0.05, 20.0),
    st.floats(5e-324, 1.8e308),
    st.sampled_from([5e-324, 1e-320, 1e-200, 1e-170, 1e-162, 1e-155, 1e-154,
                     1e154, 1.5e154, 1e155, 1e200, 0.0, -1.0, math.inf, math.nan]),
)
MEANS = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e6, -1e6, 1e300, -1e300, math.inf, math.nan]),
)
LEVELS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([5e-324, 1e-17, 1e-9, 0.5, 0.9, 0.95, 1.0 - 1e-12, 1.0 - 2.0**-53]),
)
GROUPS = st.tuples(SIZES, MEANS, SDS)


def bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


def outcome(fn, a, b, level, welch):
    """("ok", bit patterns of estimate, lo, hi, p) or (error type, message)."""
    try:
        estimate, interval, p = fn(a, b, level, welch)
    except SgpvError as exc:
        return type(exc).__name__, str(exc)
    return "ok", tuple(map(bits, (estimate, interval.lo, interval.hi, p)))


def reference_row(a_values, b_values, level, welch):
    """The reference outcome, from the summaries through the t-test."""
    try:
        a, b = GroupSummary(*a_values), GroupSummary(*b_values)
    except SgpvError as exc:
        return type(exc).__name__, str(exc)
    return outcome(oracles.two_sample_ci, a, b, level, welch)


class TestAgainstReference:
    @PROPERTY
    @given(st.lists(st.tuples(GROUPS, GROUPS), min_size=1, max_size=12), LEVELS, st.booleans())
    @example([((2**53 - 1, 0.0, 1.0), (2, 0.5, 1.0))], 0.95, False)
    @example([((10**300, 1.0, 1.0), (10**300, 0.0, 1.0))], 0.95, False)
    @example([((10, 1e6, 1e-3), (10, 0.0, 1e-3))], 0.95, True)
    @example([((10, 1.0, 1e-155), (12, 0.0, 1e-162))], 0.5, True)
    @example([((10, 1.0, 1e-320), (10, 0.0, 1e-320))], 0.95, False)
    @example([((10, -0.0, 1.0), (10, 0.0, 1.0))], 5e-324, False)
    @example([((5, 1.0, 2.0), (7, 0.0, 1.0))], 1.0 - 2.0**-53, True)
    @example([((TOP, 0.0, 1.0), (TOP, 1.0, 1.0))], 0.95, False)
    @example([((TOP, 0.0, 1.0), (TOP, 1.0, 1.0))], 0.95, True)
    @example([((TOP, 0.0, 1e154), (TOP, 1.0, 1e154))], 0.95, False)
    @example([((TOP, 0.0, 1e154), (TOP, 1.0, 1e154))], 0.95, True)
    def test_array_and_scalar_view_match_bit_for_bit(self, rows, level, welch):
        columns = [[g[i] for g in groups] for groups in zip(*rows) for i in range(3)]
        estimate, lo, hi, p, invalid = two_sample_ci_array(*columns, level, welch)
        for k, (a_values, b_values) in enumerate(rows):
            want = reference_row(a_values, b_values, level, welch)
            assert bool(invalid[k]) == (want[0] == "InvalidSummary"), (a_values, b_values)
            if invalid[k]:
                continue
            assert bits(estimate[k]) == bits(a_values[1] - b_values[1])
            try:
                interval = ExtendedInterval(float(lo[k]), float(hi[k]))
            except SgpvError as exc:
                got = type(exc).__name__, str(exc)
            else:
                got = "ok", tuple(map(bits, (estimate[k], interval.lo, interval.hi, p[k])))
            assert got == want, (a_values, b_values)
            scalar = outcome(two_sample_ci, GroupSummary(*a_values), GroupSummary(*b_values),
                             level, welch)
            assert scalar == want, (a_values, b_values)

    def test_benchmark_like_rows(self):
        rng = np.random.default_rng(20)
        rows = 1500
        n1, n2 = rng.integers(5, 41, rows), rng.integers(5, 41, rows)
        mean1, mean2 = rng.normal(8.0, 2.0, rows), rng.normal(8.0, 2.0, rows)
        sd1, sd2 = rng.lognormal(0.0, 0.5, rows), rng.lognormal(0.0, 0.5, rows)
        for welch in (False, True):
            estimate, lo, hi, p, invalid = two_sample_ci_array(
                n1, mean1, sd1, n2, mean2, sd2, 0.95, welch
            )
            assert not invalid.any()
            for k in range(rows):
                a = GroupSummary(int(n1[k]), float(mean1[k]), float(sd1[k]))
                b = GroupSummary(int(n2[k]), float(mean2[k]), float(sd2[k]))
                want = outcome(oracles.two_sample_ci, a, b, 0.95, welch)
                assert want == ("ok", tuple(map(bits, (estimate[k], lo[k], hi[k], p[k]))))

    def test_group_size_beyond_float_range(self):
        a, b = GroupSummary(10**400, 1.0, 1.0), GroupSummary(10, 0.0, 1.0)
        for welch in (False, True):
            want = outcome(oracles.two_sample_ci, a, b, 0.95, welch)
            assert want[0] == "InvalidSummary"
            assert outcome(two_sample_ci, a, b, 0.95, welch) == want

    def test_nan_group_size_is_a_summary_error(self):
        with pytest.raises(InvalidSummary, match=r"^group size must be >= 2, got nan$"):
            two_sample_ci(GroupSummary(math.nan, 1.0, 1.0), GroupSummary(10, 0.0, 1.0))
        assert invalid_summaries(np.array([math.nan, 1.0, 2.0, math.inf]),
                                 np.ones(4)).tolist() == [True, True, False, False]

    def test_infinite_group_size_is_a_summary_error_in_the_pooled_test(self):
        # the pooled variance is inf / inf; Welch gives the known-variance answer
        a, b = GroupSummary(math.inf, 1.0, 1.0), GroupSummary(10, 0.0, 1.0)
        for fn in (two_sample_ci, oracles.two_sample_ci):
            with pytest.raises(InvalidSummary, match=r"^the standard error of the difference"):
                fn(a, b)
        want = outcome(oracles.two_sample_ci, a, b, 0.95, True)
        assert want[0] == "ok"
        assert outcome(two_sample_ci, a, b, 0.95, True) == want

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, math.nan])
    def test_rejects_level_outside_unit_interval(self, level):
        with pytest.raises(InvalidProbability):
            two_sample_ci_array([10], [1.0], [1.0], [10], [0.0], [1.0], level)


def screen(tmp_path, capsys, text, *flags):
    src = tmp_path / "g.csv"
    src.write_text(text)
    code = main(["screen", str(src), "--null-point", "0", "--delta", "0.5", *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScreenErrorOrder:
    @pytest.mark.parametrize("welch", [False, True])
    @pytest.mark.parametrize(
        "lines, message",
        [
            # a summary error on an earlier line than a cell error
            (["a,10,1,1,10,0,1", "b,1,1,1,10,0,1", "c,abc,1,1,10,0,1"],
             "line 3: group size must be >= 2, got 1"),
            (["a,10,1,1e200,10,0,1", "b,10,x,1,10,0,1"],
             "line 2: the standard error of the difference under- or overflows"),
            (["a,10,nan,1,10,0,1", "b,10,1,1,10,0,"],
             "line 2: interval endpoints must not be NaN"),
            (["a,50,1000000,1,50,0,1", "b,10,1,1"],  # line 2's p-value underflows to 0
             "line 3: bad value for 'n2'"),
            # a cell error on an earlier line than a summary error
            (["a,10,1,1,10,0,1", "b,abc,1,1,10,0,1", "c,1,1,1,10,0,1"],
             "line 3: bad value for 'n1'"),
            (["a,10,1,1,10,0,x", "b,10,1,1e200,10,0,1"],
             "line 2: bad value for 'sd2'"),
            (["a,2.5,1,1,10,0,1", "b,10,1,-1,10,0,1"],
             "line 2: 'n1' must be a whole number, got '2.5'"),
            # within a line: the first group's summary before the second's cells
            (["a,10,1,0,10,0,x"], "line 2: sd must be positive, got 0.0"),
            (["a,10,1,1,1,0,x"], "line 2: bad value for 'sd2'"),
            (["a,10,1,1,1,0,1"], "line 2: group size must be >= 2, got 1"),
            (["a,1,1,1,10,0,-1"], "line 2: group size must be >= 2, got 1"),
            (["a,10,1,1,10,0,-1"], "line 2: sd must be positive, got -1.0"),
        ],
    )
    def test_earliest_failing_line_wins(self, tmp_path, capsys, lines, message, welch):
        flags = ["--welch"] if welch else []
        code, out, err = screen(tmp_path, capsys, GROUP_HEADER + "\n".join(lines) + "\n", *flags)
        assert (code, out) == (2, "")
        assert err == f"sgpv: input error: {message}\n"


class TestGroupSizesAtTheTopOfTheDoubles:
    def test_pooled_df_beyond_the_doubles_is_an_input_error(self, tmp_path, capsys):
        text = GROUP_HEADER + "a,1e308,0,1,1e308,1,1\n"
        code, out, err = screen(tmp_path, capsys, text, "--delta", "0.1")
        assert (code, out) == (2, "")
        assert err == ("sgpv: input error: line 2: "
                       "the standard error of the difference under- or overflows\n")

    def test_welch_df_beyond_the_doubles_gives_the_limit(self, tmp_path, capsys):
        text = GROUP_HEADER + "a,1e308,0,1e154,1e308,1,1e154\n"
        code, out, err = screen(tmp_path, capsys, text, "--delta", "0.1", "--welch")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "a,0.5,inconclusive,,0.4795,0.4795,0.4795,1,"


class TestEmptyTwoGroupScreen:
    def test_crosstab_on_header_only_input(self, tmp_path, capsys):
        code, out, err = screen(tmp_path, capsys, GROUP_HEADER, "--crosstab", "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["rows"] == []
        assert set(payload["summary"].values()) == {0}
        assert set(payload["crosstab"].values()) == {0}

    def test_crosstab_csv_block(self, tmp_path, capsys):
        code, out, _ = screen(tmp_path, capsys, GROUP_HEADER, "--crosstab")
        assert code == 0
        assert out.splitlines()[-2:] == ["bonferroni_significant,0,0",
                                         "bonferroni_not_significant,0,0"]

    def test_interval_input_with_filled_p_values_may_be_empty(self, tmp_path, capsys):
        code, _, _ = screen(tmp_path, capsys, "id,lo,hi,p_value\n", "--crosstab")
        assert code == 0

    def test_interval_input_without_p_values_still_refused(self, tmp_path, capsys):
        code, _, err = screen(tmp_path, capsys, "id,lo,hi\n", "--crosstab")
        assert code == 3
        assert "p_value" in err
