"""Kernel accuracy checks against the independent decimal/series oracle."""

import math

import numpy as np
import pytest

from oracles import normal_cdf_oracle, normal_quantile_oracle
from sgpv import std_normal_cdf, std_normal_quantile
from sgpv._normal import norm_quantile_array
from sgpv.cli import main
from sgpv.design import _z
from sgpv.errors import InvalidProbability

# 29 reference points spanning both tails and the center.
REFERENCE_XS = [
    -8.0, -7.0, -6.0, -5.96, -5.0, -4.0, -3.5, -3.0, -2.5, -2.0, -1.96,
    -1.5, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 1.5, 1.96, 2.0, 2.5,
    3.0, 3.5, 4.0, 5.0, 5.96, 8.0,
]


class TestCdf:
    def test_matches_series_oracle(self):
        for x in REFERENCE_XS:
            assert abs(std_normal_cdf(x) - normal_cdf_oracle(x)) <= 1e-12, x

    def test_deep_tail_against_continued_fraction(self):
        for x in (-12.0, -10.0, -9.0, 9.0, 10.0, 12.0):
            oracle = normal_cdf_oracle(x)
            assert std_normal_cdf(x) == pytest.approx(oracle, rel=1e-12)

    def test_half_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_known_value_at_196(self):
        assert std_normal_cdf(1.96) == pytest.approx(0.975002, abs=5e-7)

    def test_monotone(self):
        xs = np.linspace(-12, 12, 4001)
        values = [std_normal_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_symmetry(self):
        for x in REFERENCE_XS:
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


class TestQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_upper_0975(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=5e-7)

    def test_round_trip_within_1e12(self):
        ps = [1e-12, 1e-9, 1e-6, 1e-3] + [i / 100 for i in range(1, 100)] + [
            1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12,
        ]
        for p in ps:
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-12, p

    def test_round_trip_centiles(self):
        for p in [i / 100 for i in range(1, 100)]:
            assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_against_bisected_oracle(self):
        for p in (1e-8, 1e-4, 0.025, 0.05, 0.16, 0.5, 0.8, 0.975, 0.9999, 1 - 1e-8):
            assert std_normal_quantile(p) == pytest.approx(
                normal_quantile_oracle(p), abs=1e-9, rel=1e-9
            )

    def test_monotone(self):
        ps = np.linspace(1e-6, 1 - 1e-6, 2001)
        values = [std_normal_quantile(p) for p in ps]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(InvalidProbability):
            std_normal_quantile(p)


def log_uniform(rng: np.random.Generator, smallest: float, count: int) -> list[float]:
    """count probabilities log-uniform on [smallest, 0.5); those that round to 0 are dropped."""
    p = np.exp(rng.uniform(math.log(smallest), math.log(0.5), count))
    return p[p > 0.0].tolist()


class TestQuantileAccuracy:
    """AS 241 within 4 eps of the bisected oracle across the doubles, its far
    tails (min(p, 1 - p) below exp(-25), where r > 5) included."""

    def test_relative_error_within_four_eps(self):
        rng = np.random.default_rng(241)
        # down to the least subnormal, and again from 2**-53, whose mirrors 1 - p stay below 1
        ps = [5e-324, *log_uniform(rng, 5e-324, 48), *log_uniform(rng, 2.0**-53, 24)]
        ps += [1.0 - p for p in ps if 1.0 - p < 1.0]
        for p, q in zip(ps, norm_quantile_array(np.array(ps)).tolist()):
            want = normal_quantile_oracle(p)
            assert abs(q - want) <= 4 * 2.0**-52 * abs(want), (p, q, want)

    def test_design_z_at_alpha_1e_15(self):
        # 1 - alpha/2 rounds to 1 - 5.55e-16, whose quantile is 8.014015948775546
        assert _z(1e-15) == pytest.approx(normal_quantile_oracle(1.0 - 0.5e-15), rel=4 * 2.0**-52)

    def test_design_curve_at_alpha_1e_15(self, capsys):
        code = main(["design", "--theta0", "0", "--delta", "0.3", "--n", "100", "--variance", "1",
                     "--alpha", "1e-15", "--thetas", "0,0.5,1"])
        assert (code, capsys.readouterr().out) == (0, (
            "theta,p_alt,p_null,p_inconclusive\n"
            "0,3.27091e-28,0,1\n"
            "0.5,9.04913e-10,0,1\n"
            "1,0.155288,0,0.844712\n"))

    def test_compute_z_interval_at_level_1_minus_1e_15(self, tmp_path, capsys):
        src = tmp_path / "z.csv"
        src.write_text("id,estimate,se\na,0,1\nb,1.5,0.25\n")
        code = main(["compute", str(src), "--null-point", "0", "--delta", "1",
                     "--level", "0.999999999999999"])
        assert (code, capsys.readouterr().out) == (0, (
            "id,lo,hi,p_delta,classification,correction_applied,delta_gap,flags\n"
            "a,-8.0414,8.0414,0.5,inconclusive,true,,\n"
            "b,-0.51035,3.51035,0.375644,inconclusive,false,,\n"))
