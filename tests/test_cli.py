"""Command line behavior: formats, exit codes, config handling."""

import csv
import io
import json

import pytest

from sgpv import DesignConfig, PriorOdds, fdr_sgpv, outcome_probs
from sgpv.cli import main

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

    def test_single_point(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text("t,lo,hi\n1,-0.2,0.3\n")
        code, out, _ = run(
            capsys, "track", str(src), "--null-point", "0", "--delta", "0.05"
        )
        assert code == 0
        assert len(parse_csv(out)) == 1


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
