"""Command line behavior: formats, exit codes, config handling."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgpv
from sgpv import DesignConfig, NullSpec, PriorOdds, fdr_sgpv, outcome_probs
from sgpv.cli import main
from sgpv.errors import InvalidSeries
from sgpv.screening import track_arrays

TABLE1 = """id,estimate,se
1,146,0.5
2,145.5,0.25
3,145,1.25
4,146,2.25
5,144,1
6,143.5,0.5
7,142,1
8,141,0.5
"""

TABLE1_P = [1.0, 1.0, 0.7041, 0.5, 0.5, 0.2449, 0.0, 0.0]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:] if r]


class TestCompute:
    def test_table_fixture(self, tmp_path, capsys):
        src = tmp_path / "t1.csv"
        src.write_text(TABLE1)
        code, out, _ = run(
            capsys, "compute", str(src), "--null-point", "146", "--delta", "2"
        )
        assert code == 0
        rows = parse_csv(out)
        for row, want in zip(rows, TABLE1_P):
            assert float(row["p_delta"]) == pytest.approx(want, abs=5e-5)

    def test_interval_input_and_json(self, tmp_path, capsys):
        src = tmp_path / "iv.csv"
        src.write_text("id,lo,hi\na,0.05,1.19\n")
        code, out, _ = run(
            capsys, "compute", str(src),
            "--null-point", "0", "--delta", "0.1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["p_delta"] == pytest.approx(0.0439, abs=5e-5)
        assert payload["rows"][0]["classification"] == "inconclusive"

    def test_finite_null_whose_midpoint_overflows(self, tmp_path, capsys):
        src = tmp_path / "iv.csv"
        src.write_text("id,lo,hi\na,1.2e308,1.3e308\nb,0,1\n")
        code, out, err = run(capsys, "compute", str(src), "--null-lo", "1e308",
                             "--null-hi", "1.7e308")
        assert (code, err) == (0, "")
        rows = parse_csv(out)
        assert [r["classification"] for r in rows] == ["null_compatible", "alternative_compatible"]
        assert rows[1]["delta_gap"] == "-2.85714"

    def test_empty_input_is_ok(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("id,lo,hi\n")
        code, out, _ = run(
            capsys, "compute", str(src), "--null-point", "0", "--delta", "1"
        )
        assert code == 0
        assert out.strip() == "id,lo,hi,p_delta,classification,correction_applied,delta_gap,flags"

    def test_reversed_bounds_exit_2_with_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("id,lo,hi\na,1,2\nb,5,4\n")
        code, _, err = run(
            capsys, "compute", str(src), "--null-point", "0", "--delta", "1"
        )
        assert code == 2
        assert "line 3" in err

    def test_missing_null_exit_3(self, tmp_path, capsys):
        src = tmp_path / "iv.csv"
        src.write_text("id,lo,hi\na,0,1\n")
        code, _, err = run(capsys, "compute", str(src))
        assert code == 3
        assert "null" in err

    def test_conflicting_null_forms_exit_3(self, tmp_path, capsys):
        src = tmp_path / "iv.csv"
        src.write_text("id,lo,hi\na,0,1\n")
        code, _, _ = run(
            capsys, "compute", str(src),
            "--null-point", "0", "--delta", "1", "--null-lo", "-1", "--null-hi", "1",
        )
        assert code == 3

    def test_round_trip_preserves_p_delta(self, tmp_path, capsys):
        src = tmp_path / "t1.csv"
        src.write_text(TABLE1)
        first = tmp_path / "first.csv"
        code, _, _ = run(
            capsys, "compute", str(src),
            "--null-point", "146", "--delta", "2", "--digits", "17",
            "--out", str(first),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "compute", str(first),
            "--null-point", "146", "--delta", "2", "--digits", "17",
        )
        assert code == 0
        before = [r["p_delta"] for r in parse_csv(first.read_text())]
        after = [r["p_delta"] for r in parse_csv(out)]
        assert before == after

    def test_log10_defaults_to_fold_change_null(self, tmp_path, capsys):
        src = tmp_path / "fc.csv"
        src.write_text("id,lo,hi\ngene6345,2.02,29.74\ngene350,1.36,1.94\n")
        code, out, _ = run(capsys, "compute", str(src), "--log10")
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["p_delta"]) == 0.0
        assert float(rows[1]["p_delta"]) == 1.0

    def test_unbounded_row_flagged(self, tmp_path, capsys):
        src = tmp_path / "u.csv"
        src.write_text("id,lo,hi\na,-inf,inf\nb,0,1\n")
        code, out, _ = run(
            capsys, "compute", str(src), "--null-point", "0", "--delta", "1"
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["flags"] == "unbounded_estimate"
        assert rows[0]["p_delta"] == ""
        assert rows[1]["flags"] == ""

    def test_one_sided_estimate_against_null_whose_length_overflows(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("id,lo,hi\na,0,inf\n"))
        code, out, err = run(capsys, "compute", "-", "--null-point", "0", "--delta", "1e308")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "a,0,inf,0.25,inconclusive,true,,"

    def test_range_null_whose_length_overflows(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("id,lo,hi\na,0,1\n"))
        code, out, err = run(capsys, "compute", "-", "--null-lo=-1e308", "--null-hi=1e308")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "a,0,1,1,null_compatible,false,,"

    @pytest.mark.parametrize("row, null, want", [
        ("a,-1e308,1e308", ["--null-lo", "9e307", "--null-hi", "1.1e308"],
         "a,-1e+308,1e+308,0.05,inconclusive,false,,"),
        ("a,-1.7e308,1e308", ["--null-lo=-1e308", "--null-hi=1.7e308"],
         "a,-1.7e+308,1e+308,0.740741,inconclusive,false,,"),
        ("a,1e308,1.7e308", ["--null-lo=-1.7e308", "--null-hi=-1e308"],
         "a,1e+308,1.7e+308,0,alternative_compatible,false,5.71429,"),
    ], ids=["estimate_length", "estimate_length_and_overlap", "gap"])
    def test_differences_that_overflow_are_taken_at_half_scale(self, capsys, monkeypatch,
                                                                row, null, want):
        # each answer is that of the same case scaled by 1/10
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"id,lo,hi\n{row}\n"))
        code, out, err = run(capsys, "compute", "-", *null)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == want

    def test_one_sided_overlap_of_one_subnormal_step(self, capsys, monkeypatch):
        # the answer of the same case scaled by 2**1021 (estimate [0.5, inf))
        monkeypatch.setattr(sys, "stdin", io.StringIO("id,lo,hi\na,2.225073858507202e-308,inf\n"))
        code, out, err = run(capsys, "compute", "-", "--null-lo=-2.2250738585072014e-308",
                             "--null-hi=2.2250738585072024e-308")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "a,2.22507e-308,inf,5.55112e-17,inconclusive,true,,"


class TestDesign:
    def test_single_point_grid_matches_library(self, capsys):
        code, out, _ = run(
            capsys, "design", "--theta0", "0", "--delta", "1",
            "--n", "16", "--variance", "1", "--thetas", "0",
        )
        assert code == 0
        row = parse_csv(out)[0]
        probs = outcome_probs(0.0, DesignConfig(0, 1, 16, 1, 0.05))
        assert float(row["p_alt"]) == pytest.approx(probs.p_alt, rel=1e-4)
        assert float(row["p_null"]) == pytest.approx(probs.p_null, rel=1e-5)

    def test_grid_spec(self, capsys):
        # note the = form: a leading minus would otherwise read as a flag
        code, out, _ = run(
            capsys, "design", "--theta0", "0", "--delta", "0.3",
            "--n", "16", "--variance", "1", "--grid=-1:1:41",
        )
        assert code == 0
        assert len(parse_csv(out)) == 41

    @pytest.mark.parametrize("grid", ["1:2", "a:b:c", "1:0:5", "0:1:0"])
    def test_malformed_grid_exit_3(self, capsys, grid):
        code, _, _ = run(
            capsys, "design", "--theta0", "0", "--delta", "0.3",
            "--n", "16", "--variance", "1", "--grid", grid,
        )
        assert code == 3

    def test_missing_design_flag_exit_3(self, capsys):
        code, _, err = run(capsys, "design", "--theta0", "0", "--thetas", "0")
        assert code == 3
        assert "required" in err


class TestReliability:
    def test_theta0_row_equals_prior(self, capsys):
        code, out, _ = run(
            capsys, "reliability", "--theta0", "0", "--delta", "0.5",
            "--n", "16", "--variance", "1", "--r", "3", "--thetas", "0",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["fdr_sgpv"]) == pytest.approx(0.25, abs=1e-6)

    def test_nonpositive_odds_exit_3(self, capsys):
        code, _, _ = run(
            capsys, "reliability", "--theta0", "0", "--delta", "0.5",
            "--n", "16", "--variance", "1", "--r", "0", "--thetas", "0",
        )
        assert code == 3

    def test_fnr_test_limit_when_beta_times_odds_underflows(self, capsys):
        code, out, _ = run(
            capsys, "reliability", "--theta0", "0", "--delta", "0.3",
            "--n", "16", "--variance", "1", "--r", "1e-308", "--thetas", "5",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["fnr_test"]) == 0.0

    def test_undefined_fcr_serialized_empty(self, capsys):
        code, out, _ = run(
            capsys, "reliability", "--theta0", "0", "--delta", "0.5",
            "--n", "5", "--variance", "1", "--r", "1", "--thetas", "1",
        )
        assert code == 0
        assert parse_csv(out)[0]["fcr_sgpv"] == ""


class TestScreen:
    def test_hazard_ratio_row(self, tmp_path, capsys):
        src = tmp_path / "cox.csv"
        src.write_text("id,estimate,lo,hi\ncox,1.7,1.23,2.36\n")
        code, out, _ = run(
            capsys, "screen", str(src), "--null-lo", "0.9", "--null-hi", "1.1"
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["p_delta"]) == 0.0
        assert row["rank"] == "1"

    def test_crosstab_requires_pvalues(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("id,estimate,lo,hi\na,0.5,0.2,0.8\n")
        code, _, err = run(
            capsys, "screen", str(src),
            "--null-point", "0", "--delta", "0.3", "--crosstab",
        )
        assert code == 3
        assert "p_value" in err

    def test_screen_with_crosstab(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text(
            "id,estimate,lo,hi,p_value\n"
            "a,2.5,2,3,0.0001\n"
            "b,0.1,-0.1,0.3,0.4\n"
            "c,1.0,0.2,1.8,0.02\n"
        )
        out_file = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "screen", str(src),
            "--null-point", "0", "--delta", "0.5", "--crosstab",
            "--out", str(out_file),
        )
        assert code == 0
        rows = parse_csv(out_file.read_text())
        assert [r["id"] for r in rows] == ["a", "b", "c"]
        assert rows[0]["q_bh"] != ""
        tab = parse_csv(out)
        assert tab[0]["crosstab"] == "bonferroni_significant"
        total = sum(
            int(r[k]) for r in tab for k in ("p_delta_zero", "p_delta_positive")
        )
        assert total == 3

    def test_crosstab_without_p_value_column_message(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("id,lo,hi\na,0.2,0.8\n")
        code, out, err = run(capsys, "screen", str(src), "--null-point", "0", "--delta", "0.3",
                             "--crosstab")
        assert (code, out) == (3, "")
        assert err == ("sgpv: configuration error: "
                       "--crosstab needs a p_value column (or two-group input)\n")

    @pytest.mark.parametrize("cell", ["", "  ", None], ids=["blank", "spaces", "missing"])
    def test_crosstab_names_the_row_without_a_p_value(self, tmp_path, capsys, cell):
        src = tmp_path / "s.csv"
        short = "b,0.2,0.8" if cell is None else f"b,0.2,0.8,{cell}"
        src.write_text(f"id,lo,hi,p_value\na,0.2,0.8,0.01\n{short}\n")
        code, out, err = run(capsys, "screen", str(src), "--null-point", "0", "--delta", "0.3",
                             "--crosstab")
        assert (code, out) == (2, "")
        assert err == ("sgpv: input error: line 3: missing value for 'p_value' "
                       "(--crosstab needs a p-value on every row)\n")
        # without --crosstab the row is screened with no p-value, as before
        code, out, _ = run(capsys, "screen", str(src), "--null-point", "0", "--delta", "0.3")
        assert code == 0
        assert [row["p_raw"] for row in parse_csv(out)] == ["0.01", ""]

    def test_two_group_input(self, tmp_path, capsys):
        src = tmp_path / "g.csv"
        src.write_text("id,n1,mean1,sd1,n2,mean2,sd2\nx,10,1,1,10,0,1\n")
        code, out, _ = run(
            capsys, "screen", str(src), "--null-point", "0", "--delta", "0.2"
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["p_raw"] != ""
        assert row["classification"] == "inconclusive"

    def test_log10_applies_to_the_interval_form_used(self, tmp_path, capsys):
        """The interval columns win over the two-group columns; --log10 is
        refused only for input screened as two-group summaries."""
        src = tmp_path / "s.csv"
        src.write_text("id,lo,hi,n1,mean1,sd1,n2,mean2,sd2\na,1,2,5,1,1,5,1,1\n")
        both = run(capsys, "screen", str(src), "--log10")
        src.write_text("id,lo,hi\na,1,2\n")
        assert both == run(capsys, "screen", str(src), "--log10")
        assert both[0] == 0 and both[1].splitlines()[1].startswith("a,1,null_compatible,")
        src.write_text("id,n1,mean1,sd1,n2,mean2,sd2\na,5,1,1,5,1,1\n")
        assert run(capsys, "screen", str(src), "--log10") == (
            3, "", "sgpv: configuration error: --log10 applies to interval inputs; "
                   "two-group summaries are analyzed on the scale they are given\n")

    def test_ranking_prefers_larger_gap(self, tmp_path, capsys):
        src = tmp_path / "rank.csv"
        src.write_text(
            "id,estimate,lo,hi\n"
            "gene3252,1.4,1.22,1.64\n"
            "gene2288,2.5,2.11,2.87\n"
        )
        code, out, _ = run(
            capsys, "screen", str(src), "--null-lo", "-0.3", "--null-hi", "0.3"
        )
        assert code == 0
        rows = parse_csv(out)
        ranks = {r["id"]: r["rank"] for r in rows}
        assert ranks == {"gene2288": "1", "gene3252": "2"}


class TestTrack:
    def test_green_grey_red_pattern(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text(
            "t,lo,hi\n100,-0.01,0.01\n200,0.02,0.10\n300,0.07,0.20\n"
        )
        code, out, _ = run(
            capsys, "track", str(src), "--null-point", "0", "--delta", "0.05"
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["classification"] for r in rows] == [
            "null_compatible", "inconclusive", "alternative_compatible",
        ]
        assert rows[1]["grey_level"] == rows[1]["p_delta"]
        assert rows[0]["grey_level"] == ""

    def test_non_monotone_t_exit_2(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text("t,lo,hi\n2,-0.1,0.1\n1,0,0.2\n")
        code, _, _ = run(
            capsys, "track", str(src), "--null-point", "0", "--delta", "0.05"
        )
        assert code == 2

    def test_nan_t_exit_2(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text("t,lo,hi\n2,-0.1,0.1\nnan,0,0.2\n1,0,0.2\n")
        code, _, err = run(
            capsys, "track", str(src), "--null-point", "0", "--delta", "0.05"
        )
        assert code == 2
        assert "strictly increasing" in err

    def test_single_point(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text("t,lo,hi\n1,-0.2,0.3\n")
        code, out, _ = run(
            capsys, "track", str(src), "--null-point", "0", "--delta", "0.05"
        )
        assert code == 0
        assert len(parse_csv(out)) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,lo,hi\nnan,-0.2,0.3\n", "line 2: time points must be strictly increasing"),
            ("t,lo,hi\n1,-0.2,0.3\n1,0,1\n", "line 3: time points must be strictly increasing"),
            ("t,lo,hi\n1,-0.2,0.3\n1,-inf,inf\n",  # the time point is checked first
             "line 3: time points must be strictly increasing"),
            ("t,lo,hi\n1,-0.2,0.3\n\n2,-inf,inf\n3,2,1\n",
             "line 4: interval estimate covers the whole real line; "
             "truncate() it to the plausible effect range first"),
            ("t,lo,hi\n", "series is empty"),
        ],
        ids=["single-nan-t", "repeated-t", "repeated-t-whole-line", "whole-line", "header-only"],
    )
    def test_series_errors_exit_2(self, tmp_path, capsys, text, message):
        src = tmp_path / "t.csv"
        src.write_text(text)
        code, out, err = run(capsys, "track", str(src), "--null-point", "0", "--delta", "0.05")
        assert (code, out, err) == (2, "", f"sgpv: input error: {message}\n")

    def test_library_rejects_a_single_nan_time_point(self):
        with pytest.raises(InvalidSeries, match="strictly increasing"):
            track_arrays([math.nan], [-0.2], [0.3], NullSpec.symmetric(0.0, 0.05))


class TestSimulate:
    def test_classical_recovery_json(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--theta0", "0", "--delta", "0",
            "--n", "25", "--variance", "1", "--replicates", "20000", "--seed", "9",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"]["p_alt"] == pytest.approx(0.05, abs=1e-10)
        assert abs(payload["z_scores"]["p_alt"]) <= 3.0
        assert payload["counts"]["null"] == 0

    def test_reliability_block(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--theta0", "0", "--delta", "0.5",
            "--n", "16", "--variance", "1", "--replicates", "20000",
            "--seed", "4", "--theta1", "1", "--r", "1",
        )
        assert code == 0
        payload = json.loads(out)
        block = payload["reliability"]
        want = fdr_sgpv(1.0, DesignConfig(0, 0.5, 16, 1, 0.05), PriorOdds(1.0))
        assert block["closed_form_fdr"] == pytest.approx(want)
        assert block["n_discoveries"] > 0

    @pytest.mark.parametrize(
        "truth",
        [("--theta", "inf"), ("--theta=-inf",), ("--theta", "nan"),
         ("--theta1", "inf", "--r", "1"), ("--theta1=-inf", "--r", "1"),
         ("--theta1", "nan", "--r", "1")],
        ids=["theta-inf", "theta-negative-inf", "theta-nan", "theta1-inf",
             "theta1-negative-inf", "theta1-nan"],
    )
    def test_non_finite_truth_exit_3(self, capsys, truth):
        code, out, err = run(
            capsys, "simulate", "--theta0", "0", "--delta", "0.5",
            "--n", "16", "--variance", "1", "--replicates", "1000", *truth,
        )
        assert (code, out) == (3, "")
        assert err.startswith("sgpv: configuration error: ")
        assert "must be finite" in err

    def test_zero_replicates_exit_3(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--theta0", "0", "--delta", "0",
            "--n", "25", "--variance", "1", "--replicates", "0",
        )
        assert code == 3

    def test_zero_chunks_exit_3(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--theta0", "0", "--delta", "0",
            "--n", "25", "--variance", "1", "--replicates", "10", "--chunks", "0",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("sgpv: configuration error: ")

    @pytest.mark.parametrize(
        "file_cfg",
        [{"chunks": "abc"}, {"seed": "abc"}, {"seed": 1.5}, {"replicates": "many"},
         {"replicates": [10]}],
        ids=["chunks-text", "seed-text", "seed-fraction", "replicates-text",
             "replicates-list"],
    )
    def test_non_integer_config_exit_3(self, tmp_path, capsys, file_cfg):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"replicates": 10, **file_cfg}))
        code, out, err = run(
            capsys, "simulate", "--theta0", "0", "--delta", "0",
            "--n", "25", "--variance", "1", "--config", str(cfg),
        )
        assert code == 3
        assert out == ""
        assert err.startswith("sgpv: configuration error: ")

    def test_chunks_do_not_change_output(self, capsys):
        base_args = (
            "simulate", "--theta0", "0", "--delta", "0.5", "--n", "16",
            "--variance", "1", "--replicates", "5000", "--seed", "77",
        )
        code, out1, _ = run(capsys, *base_args)
        assert code == 0
        code, out2, _ = run(capsys, *base_args, "--chunks", "6")
        assert code == 0
        assert json.loads(out1)["counts"] == json.loads(out2)["counts"]


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"null_point": 146, "delta": 2, "digits": 17}))
        src = tmp_path / "t1.csv"
        src.write_text(TABLE1)
        code, out, _ = run(capsys, "compute", str(src), "--config", str(cfg))
        assert code == 0
        assert float(parse_csv(out)[2]["p_delta"]) == pytest.approx(0.7041, abs=5e-5)
        # an explicit flag overrides the file value
        code, out, _ = run(
            capsys, "compute", str(src), "--config", str(cfg), "--null-point", "150"
        )
        assert code == 0
        assert float(parse_csv(out)[0]["p_delta"]) == 0.0  # 146 CI vs null at 150

    def test_bad_config_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        src = tmp_path / "t1.csv"
        src.write_text(TABLE1)
        code, _, _ = run(capsys, "compute", str(src), "--config", str(cfg))
        assert code == 3

    def test_non_integer_digits_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"null_point": 146, "delta": 2, "digits": "abc"}))
        src = tmp_path / "t1.csv"
        src.write_text(TABLE1)
        code, out, err = run(capsys, "compute", str(src), "--config", str(cfg))
        assert code == 3
        assert out == ""
        assert err.startswith("sgpv: configuration error: ")

    def test_unknown_command_exit_3(self, capsys):
        assert run(capsys, "frobnicate")[0] == 3


DESIGN = ("--theta0", "0", "--delta", "0.5", "--n", "16", "--variance", "1")


class TestConfigurationErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "{input}", "--null-point", "0", "--delta", "1", "--digits", "-1"),
            ("design", "--theta0", "0", "--delta", "1", "--n", "16", "--variance", "1",
             "--thetas", "0", "--digits", "-1"),
            ("reliability", "--theta0", "0", "--delta", "1", "--n", "1e6", "--variance", "1",
             "--r", "1", "--thetas", "0"),
            ("design", "--theta0", "0", "--delta", "1", "--n", "16", "--variance", "1",
             "--thetas", "nan"),
            ("reliability", "--theta0", "0", "--delta", "0.5", "--n", "16", "--variance", "1",
             "--r", "1", "--thetas", "0,nan,1"),
            # counts whose allocation is refused outright, or beyond numpy's index range
            ("design", "--theta0", "0", "--delta", "0.5", "--n", "16", "--variance", "1",
             "--grid=0:1:1000000000000000"),
            ("reliability", "--theta0", "0", "--delta", "0.5", "--n", "16", "--variance", "1",
             "--r", "1", "--grid=0:1:1000000000000000"),
            ("design", "--theta0", "0", "--delta", "0.5", "--n", "16", "--variance", "1",
             "--grid=0:1:100000000000000000000"),
            ("design", "--theta0", "0", "--delta", "0.5", "--n", "16", "--variance", "1",
             "--grid=0:1:9223372036854775808"),
            ("design", "--theta0", "0", "--delta", "0.5", "--n", "1e300", "--variance",
             "5e-324", "--thetas", "0"),
        ],
        ids=["compute-digits-negative", "design-digits-negative", "reliability-degenerate",
             "design-nan-theta", "reliability-nan-theta", "design-huge-grid",
             "reliability-huge-grid", "design-grid-beyond-size", "design-grid-beyond-index",
             "design-zero-se"],
    )
    def test_exit_3(self, tmp_path, capsys, argv):
        src = tmp_path / "iv.csv"
        src.write_text("id,lo,hi\na,0,1\n")
        code, out, err = run(capsys, *(a.replace("{input}", str(src)) for a in argv))
        assert code == 3
        assert out == ""
        assert err.startswith("sgpv: configuration error: ")

    @pytest.mark.parametrize(
        "argv, file_cfg, code, line",
        [
            (("compute", "{input}", "--null-point", "0"), None, 3,
             "configuration error: --null-point and --delta must be given together"),
            (("compute", "{input}", "--null-lo", "0"), None, 3,
             "configuration error: --null-lo and --null-hi must be given together"),
            (("design", *DESIGN, "--grid", "0:1:2", "--thetas", "0"), None, 3,
             "configuration error: give either --grid or --thetas, not both"),
            (("design", *DESIGN), None, 3,
             "configuration error: a grid is required: --grid LO:HI:COUNT or --thetas a,b,c"),
            (("design", *DESIGN, "--thetas", "0,abc"), None, 3,
             "configuration error: malformed theta list '0,abc': "
             "could not convert string to float: 'abc'"),
            (("reliability", *DESIGN, "--r", "1", "--thetas", ","), None, 3,
             "configuration error: theta list is empty"),
            (("reliability", *DESIGN, "--thetas", "0"), None, 3,
             "configuration error: --r (prior odds) is required"),
            (("simulate", *DESIGN), None, 3, "configuration error: --replicates is required"),
            (("simulate", *DESIGN, "--replicates", "10", "--theta1", "1"), None, 3,
             "configuration error: --theta1 and --r must be given together"),
            (("screen", "{other}", "--null-point", "0", "--delta", "1"), None, 2,
             "input error: input needs id,estimate,lo,hi[,p_value] or "
             "id,n1,mean1,sd1,n2,mean2,sd2 columns"),
            (("track", "{other}", "--null-point", "0", "--delta", "1"), None, 2,
             "input error: input needs t,lo,hi columns"),
            (("design", *DESIGN, "--thetas", "0"), [1, 2], 3,
             "configuration error: config file {config} must hold a JSON object"),
            (("simulate", *DESIGN, "--replicates", "10"), {"seed": 7.0}, 0, None),
        ],
        ids=["null-point-alone", "null-lo-alone", "grid-and-thetas", "no-grid",
             "malformed-thetas", "empty-thetas", "reliability-no-r", "simulate-no-replicates",
             "theta1-no-r", "screen-columns", "track-columns", "config-not-object",
             "config-whole-float-integer"],
    )
    def test_resolution_errors(self, tmp_path, capsys, argv, file_cfg, code, line):
        """Each error of resolving options and input forms, with its exact line."""
        paths = {"input": tmp_path / "iv.csv", "other": tmp_path / "other.csv",
                 "config": tmp_path / "run.json"}
        paths["input"].write_text("id,lo,hi\na,0,1\n")
        paths["other"].write_text("x,y\n1,2\n")
        argv = [a.format(**paths) for a in argv]
        if file_cfg is not None:
            paths["config"].write_text(json.dumps(file_cfg))
            argv += ["--config", str(paths["config"])]
        got_code, out, err = run(capsys, *argv)
        assert (got_code, err) == (code, "" if line is None else f"sgpv: {line.format(**paths)}\n")
        assert (out == "") == (code != 0)

    def test_whole_float_config_integer_is_that_integer(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7.0, "replicates": 500.0}))
        by_config = run(capsys, "simulate", *DESIGN, "--config", str(cfg))
        assert by_config == run(capsys, "simulate", *DESIGN, "--seed", "7", "--replicates", "500")
        assert by_config != run(capsys, "simulate", *DESIGN, "--replicates", "500")

    @pytest.mark.parametrize("command", [("design", "--grid=0:1:2"),
                                         ("reliability", "--r", "1", "--grid=0:1:2"),
                                         ("simulate", "--replicates", "10")],
                             ids=["design", "reliability", "simulate"])
    def test_overflowing_standard_error(self, capsys, command):
        code, out, err = run(capsys, *command, "--theta0", "0", "--delta", "1", "--n", "1e-10",
                             "--variance", "1e308")
        assert (code, out) == (3, "")
        assert err == "sgpv: configuration error: the standard error sqrt(variance / n) overflows\n"

    def test_nan_theta_is_one_message(self, capsys):
        design = ("--theta0", "0", "--delta", "0.5", "--n", "16", "--variance", "1",
                  "--thetas", "0,nan,1")
        errs = {run(capsys, *cmd, *design)[2] for cmd in (("design",), ("reliability", "--r", "1"))}
        assert errs == {"sgpv: configuration error: theta list '0,nan,1' holds a NaN\n"}

    def test_unallocatable_grid_says_so(self, capsys):
        code, _, err = run(capsys, "design", "--theta0", "0", "--delta", "0.5", "--n", "16",
                           "--variance", "1", "--grid=0:1:1000000000000000")
        assert code == 3
        assert err.startswith("sgpv: configuration error: the request does not fit in memory: ")

    @pytest.mark.parametrize(
        "command, file_cfg",
        [
            ("compute", {"level": "abc"}),
            ("compute", {"delta": "abc"}),
            ("compute", {"null_point": [0]}),
            ("screen", {"alpha": "abc"}),
            ("screen", {"level": "abc"}),
            ("design", {"alpha": "abc"}),
            ("design", {"n": "many"}),
            ("reliability", {"r": "abc"}),
            ("reliability", {"variance": {"v": 1}}),
            ("simulate", {"theta1": "abc", "r": 1}),
            ("simulate", {"theta": "abc"}),
            ("simulate", {"alpha": 10**400}),
        ],
        ids=["compute-level", "compute-delta", "compute-null-point-list", "screen-alpha",
             "screen-level", "design-alpha", "design-n", "reliability-r",
             "reliability-variance", "simulate-theta1", "simulate-theta", "simulate-huge-int"],
    )
    def test_non_numeric_config_exit_3(self, tmp_path, capsys, command, file_cfg):
        src = tmp_path / "s.csv"
        src.write_text("id,estimate,lo,hi,p_value\na,0.5,0.2,0.8,0.01\n")
        cfg = tmp_path / "run.json"
        base = {"null_point": 0, "delta": 1, "theta0": 0, "n": 16, "variance": 1,
                "thetas": "0,1", "r": 1, "replicates": 10}
        cfg.write_text(json.dumps({**base, **file_cfg}))
        args = [command, "--config", str(cfg)]
        if command in ("compute", "screen"):
            args.insert(1, str(src))
        code, out, err = run(capsys, *args)
        assert code == 3
        assert out == ""
        assert err.startswith("sgpv: configuration error: ")

    def test_null_in_config_means_unset(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": None, "digits": None, "format": None}))
        code, out, _ = run(
            capsys, "design", "--theta0", "0", "--delta", "1", "--n", "16",
            "--variance", "1", "--thetas", "0", "--config", str(cfg),
        )
        assert code == 0
        assert out.startswith("theta,p_alt")

    def test_negative_digits_allowed_for_json(self, tmp_path, capsys):
        src = tmp_path / "iv.csv"
        src.write_text("id,lo,hi\na,0,1\n")
        code, out, _ = run(
            capsys, "compute", str(src), "--null-point", "0", "--delta", "1",
            "--digits", "-1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["p_delta"] == 1.0

    def test_negative_digits_checked_before_input(self, tmp_path, capsys):
        src = tmp_path / "iv.csv"
        src.write_text("id,lo,hi\na,2,1\n")  # an input error, were the input read
        code, out, err = run(
            capsys, "compute", str(src), "--null-point", "0", "--delta", "1", "--digits", "-1",
        )
        assert (code, out) == (3, "")
        assert err == "sgpv: configuration error: digits must be >= 0, got '-1'\n"

    def test_huge_digits_print_exact_values(self, tmp_path, capsys):
        src = tmp_path / "iv.csv"
        src.write_text("id,lo,hi\na,0.1,1e300\nb,5e-324,2\n")
        outs = []
        for digits in ("767", "3000000000"):
            code, out, _ = run(
                capsys, "compute", str(src), "--null-point", "0", "--delta", "1",
                "--digits", digits,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert "0.1000000000000000055511151231257827021181583404541015625" in outs[0]

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        src = tmp_path / "iv.csv"
        src.write_text("id,lo,hi\na,0,1\n")
        bad = tmp_path / "bad.csv"  # fails each input check its subcommand makes
        bad.write_text("id,t,lo,hi\na,1,2,1\n")
        null = ["--null-point", "0", "--delta", "1"]
        design = ["--theta0", "0", "--delta", "1", "--n", "10", "--variance", "1"]
        for argv in (
            ["compute", str(src), *null],
            ["compute", str(bad), *null],
            ["screen", str(bad), *null],
            ["track", str(bad), *null],
            ["design", *design],  # no grid
            ["reliability", *design, "--grid", "0:1:3"],  # no --r
            ["simulate", *design],  # no --replicates
        ):
            code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "out.csv"))
            assert (code, out) == (3, ""), argv
            assert err.startswith("sgpv: configuration error: cannot write "), argv
        if os.path.exists("/dev/full"):  # a full disk: the open works, the write fails
            code, _, err = run(capsys, "compute", str(src), *null, "--out", "/dev/full")
            assert (code, err) == (3, "sgpv: configuration error: cannot write /dev/full: "
                                      "[Errno 28] No space left on device\n")

    def test_failed_run_leaves_out_as_found(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,lo,hi\na,2,1\n")
        no_p = tmp_path / "no_p.csv"
        no_p.write_text("id,lo,hi\na,0,1\n")
        existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
        existing.write_bytes(b"keep\r\n")
        for argv, want in (
            (["compute", str(bad)], 2),
            (["screen", str(no_p), "--crosstab"], 3),  # raised inside the handler
        ):
            for out in (existing, new):
                code, _, _ = run(capsys, *argv, "--null-point", "0", "--delta", "1",
                                 "--out", str(out))
                assert code == want, argv
        assert existing.read_bytes() == b"keep\r\n"
        assert not new.exists()

    def test_out_may_name_the_input_or_a_device(self, tmp_path, capsys):
        src = tmp_path / "iv.csv"
        src.write_text("id,lo,hi\na,0,1\n")
        code, want, _ = run(capsys, "compute", str(src), "--null-point", "0", "--delta", "1")
        assert code == 0
        for out in (str(src), os.devnull):
            code, _, _ = run(capsys, "compute", str(src), "--null-point", "0", "--delta", "1",
                             "--out", out)
            assert code == 0
        assert src.read_text() == want


def test_write_failure_exit_3(tmp_path):
    """A reader that leaves early or a closed stdout ends the run with one error line."""
    src = tmp_path / "big.csv"
    src.write_text("id,lo,hi\n" + "".join(f"r{k},{k},{k + 1}\n" for k in range(40000)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(sgpv.__file__).resolve().parents[1])
    cli = [sys.executable, "-m", "sgpv.cli"]
    proc = subprocess.Popen(
        [*cli, "compute", str(src), "--null-point", "0", "--delta", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"id,lo,hi,")
    proc.stdout.close()  # the output is about 2 MB, far more than a pipe holds
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 3
    assert err == "sgpv: configuration error: cannot write stdout: [Errno 32] Broken pipe\n"

    # unbuffered stdout: the JSON text goes out in one write, which the pipe takes only in part
    proc = subprocess.Popen(
        [*cli, "compute", str(src), "--null-point", "0", "--delta", "1", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**env, "PYTHONUNBUFFERED": "1"},
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 3
    assert err == "sgpv: configuration error: cannot write stdout: [Errno 32] Broken pipe\n"

    closed = subprocess.run(
        [*cli, "simulate", "--theta0", "0", "--delta", "1", "--n", "10", "--variance", "1",
         "--replicates", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120,
        preexec_fn=lambda: os.close(1),
    )
    assert (closed.returncode, closed.stderr) == (
        3, b"sgpv: configuration error: cannot write stdout: it is closed\n")


@pytest.mark.parametrize(
    "argv, text, code",
    [
        (["compute", "--null-point", "0", "--delta", "1"], "id,lo,hi\na,1,2\nb,-0.5,0.5\n", 0),
        (["compute", "--null-point", "0", "--delta", "1"], "estimate,se\n1,0.5\n", 0),
        (["screen", "--null-point", "0", "--delta", "0.5", "--crosstab"],
         "id,n1,mean1,sd1,n2,mean2,sd2\nx,15,1,1,15,0,1\ny,25,3.2,1.5,20,1.1,1.2\n", 0),
        (["screen", "--null-point", "0", "--delta", "0.5"], "id,lo,hi\na,1,2\nb,-1,1\n", 0),
        (["track", "--null-point", "0", "--delta", "0.05"],
         "t,lo,hi\n1,-0.01,0.01\n2,0.1,0.2\n", 0),
        (["compute", "--null-point", "0", "--delta", "1"], "id,lo,hi\na,2,1\n", 2),
    ],
    ids=["compute-id", "compute-no-id", "screen-groups", "screen-intervals", "track", "exit-2"],
)
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch, argv, text, code, source):
    """A UTF-8 byte-order mark before the header changes nothing in the run."""
    runs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        data = prefix + text.encode()
        if source == "file":
            src = tmp_path / "in.csv"
            src.write_bytes(data)
            path = str(src)
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
            path = "-"
        runs.append(run(capsys, argv[0], path, *argv[1:]))
    assert runs[1] == runs[0]
    assert runs[0][0] == code


class TestScreenInputErrors:
    @pytest.mark.parametrize("p_value", ["nan", "1e400", "1.5", "-0.2"])
    def test_p_value_off_unit_interval_exit_2(self, tmp_path, capsys, p_value):
        src = tmp_path / "s.csv"
        src.write_text(f"id,estimate,lo,hi,p_value\na,0.5,0.2,0.8,0.01\nb,1,0.5,1.5,{p_value}\n")
        code, out, err = run(capsys, "screen", str(src), "--null-point", "0", "--delta", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("sgpv: input error: line 3: ")

    def test_zero_p_value_exit_0(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("id,estimate,lo,hi,p_value\na,0.5,0.2,0.8,0.01\nb,1,0.5,1.5,0\n")
        code, out, err = run(capsys, "screen", str(src), "--null-point", "0", "--delta", "1")
        assert (code, err) == (0, "")
        assert [r["p_raw"] for r in parse_csv(out)] == ["0.01", "0"]

    def test_underflowing_t_test_exit_0(self, tmp_path, capsys):
        src = tmp_path / "g.csv"
        src.write_text("id,n1,mean1,sd1,n2,mean2,sd2\nx,50,1000000,1,50,0,1\n")
        code, out, err = run(capsys, "screen", str(src), "--null-point", "0", "--delta", "1")
        assert (code, err) == (0, "")
        assert parse_csv(out)[0]["p_raw"] == "0"

    def test_underflow_changes_only_the_p_columns(self, tmp_path, capsys):
        # sd 0.4 puts t near 56 at df 1998, where p is about 1e-680; sd 0.5
        # gives t near 45 and p = 2.9e-303, still a double
        rows = "id,n1,mean1,sd1,n2,mean2,sd2\na,20,0.3,1,20,0,1\nb,20,2,1,20,0,1\n"
        screens = []
        for sd in ("0.4", "0.5"):
            src = tmp_path / f"g{sd}.csv"
            src.write_text(f"{rows}g1,1000,1,{sd},1000,0,{sd}\n")
            code, out, err = run(capsys, "screen", str(src), "--null-point", "0",
                                 "--delta", "0.5", "--crosstab")
            assert (code, err) == (0, "")
            screens.append(parse_csv(out.split("\n\n")[0]))
        underflow, tiny = screens
        assert [underflow[2][k] for k in ("p_raw", "p_bonferroni", "q_bh")] == ["0", "0", "0"]
        assert float(tiny[2]["p_raw"]) > 0.0
        assert [r["rank"] for r in underflow] == [r["rank"] for r in tiny]

    @pytest.mark.parametrize("n", ["inf", "1e400", "nan", "2.5", "abc"])
    def test_group_size_must_be_whole_exit_2(self, tmp_path, capsys, n):
        src = tmp_path / "g.csv"
        src.write_text(f"id,n1,mean1,sd1,n2,mean2,sd2\nx,10,1,1,10,0,1\ny,{n},1,1,10,0,1\n")
        code, out, err = run(capsys, "screen", str(src), "--null-point", "0", "--delta", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("sgpv: input error: line 3: ")

    def test_whole_float_group_size_accepted(self, tmp_path, capsys):
        src = tmp_path / "g.csv"
        src.write_text("id,n1,mean1,sd1,n2,mean2,sd2\nx,10.0,1,1,1e1,0,1\n")
        code, out, _ = run(capsys, "screen", str(src), "--null-point", "0", "--delta", "0.2")
        assert code == 0
        assert parse_csv(out)[0]["classification"] == "inconclusive"


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "data",
        [b"id,lo,hi\na,0,\xff\n", b'id,lo,hi\na,0,"' + b"1" * 200_000 + b'"\n',
         b"lo,hi,id\n0,1\n"],
        ids=["not-utf8", "field-over-csv-limit", "row-missing-id"],
    )
    def test_exit_2(self, tmp_path, capsys, data):
        src = tmp_path / "bad.csv"
        src.write_bytes(data)
        code, out, err = run(capsys, "compute", str(src), "--null-point", "0", "--delta", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("sgpv: input error: ")

    def test_config_not_utf8_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'{"alpha": "\xff"}')
        code, _, err = run(
            capsys, "design", "--theta0", "0", "--delta", "1", "--n", "16",
            "--variance", "1", "--thetas", "0", "--config", str(cfg),
        )
        assert code == 3
        assert err.startswith("sgpv: configuration error: cannot read config file ")


class TestBonferroniDenominator:
    def test_flagged_row_counts_toward_m_everywhere(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("id,estimate,lo,hi,p_value\nhit,2,1.5,2.5,0.03\nwide,0,-inf,inf,0.5\n")
        code, out, _ = run(
            capsys, "screen", str(src), "--null-point", "0", "--delta", "1",
            "--crosstab", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["p_bonferroni"] == pytest.approx(0.06)
        assert payload["summary"]["n_bonferroni_significant"] == 0
        assert payload["crosstab"]["sgpv_zero_significant"] == 0
        assert payload["crosstab"]["sgpv_zero_not_significant"] == 1


FUZZ_TOKENS = ["", "nan", "inf", "-inf", "0", "-0", "1e400", "-1e400", "2.5", "-1", "abc",
               "1e-320", "1e-200", "1e200", "1", "3", "0.5", "50", "1e6", " 7 ", '"x,y"']
FUZZ_HEADERS = [
    ("compute", "id,lo,hi"),
    ("compute", "estimate,se"),
    ("compute", "lo,hi,id"),
    ("screen", "id,estimate,lo,hi,p_value"),
    ("screen", "id,lo,hi"),
    ("screen", "p_value,hi,lo,id"),
    ("screen", "id,n1,mean1,sd1,n2,mean2,sd2"),
    ("track", "t,lo,hi"),
]
FUZZ_FLAGS = {
    "compute": [(), ("--log10",), ("--format", "json")],
    "screen": [(), ("--crosstab",), ("--welch",), ("--log10",), ("--format", "json")],
    "track": [(), ("--format", "json")],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(FUZZ_HEADERS),
    st.lists(st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=8), max_size=4),
    st.booleans(),
    st.data(),
)
def test_fuzzed_cells_never_raise(fuzz_dir, header, cells, full_rows, data):
    """Any cell under a valid header ends in exit 0, 2 or 3, never a traceback."""
    command, names = header
    width = names.count(",") + 1
    if full_rows:
        cells = [(row * width)[:width] for row in cells]
    src = fuzz_dir / "input.csv"
    src.write_text("\n".join([names, *(",".join(row) for row in cells)]) + "\n")
    flags = data.draw(st.sampled_from(FUZZ_FLAGS[command]))
    argv = [command, str(src), "--null-point", "0", "--delta", "1", *flags,
            "--out", str(fuzz_dir / "out.txt")]
    assert main(argv) in (0, 2, 3)


@pytest.mark.parametrize("welch", [False, True])
@pytest.mark.parametrize(
    "row",
    ["1,1e-320,10,0,1e-320", "1,1e-200,10,0,1e-200", "1,1e200,10,0,1", "1e308,1,10,-1e308,1"],
)
def test_extreme_group_summaries_exit_2(tmp_path, capsys, row, welch):
    src = tmp_path / "g.csv"
    src.write_text(f"id,n1,mean1,sd1,n2,mean2,sd2\nx,10,{row}\n")
    flags = ["--welch"] if welch else []
    code, out, err = run(capsys, "screen", str(src), "--null-point", "0", "--delta", "1", *flags)
    assert code == 2
    assert err.startswith("sgpv: input error: line 2: ")
