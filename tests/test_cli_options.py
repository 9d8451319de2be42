"""The CLI option table: flags and config keys agree, config values are checked, raw input fuzz.

Every (subcommand, option) pair declared in ``sgpv.cli.OPTIONS`` is run
with its value given as a flag and as a config key, and with a flag that
must beat a different config value; a malformed value must fail the same
way in both forms.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgpv.cli import OPTIONS, main

INPUTS = {
    "compute": "id,estimate,se\na,2,0.5\nb,1.5,0.1\nc,0.1,0.05\n",
    "screen": ("id,n1,mean1,sd1,n2,mean2,sd2\n"
               "x,15,1,1,15,0,1\ny,25,3.2,1.5,20,1.1,1.2\nz,8,0.2,1,9,0.1,1.1\n"),
    "track": "t,lo,hi\n100,-0.01,0.01\n200,0.02,0.11\n300,0.07,0.20\n",
}
DESIGN = {"theta0": 0, "delta": 0.3, "n": 100, "variance": 1}
# Options every run of the subcommand gets as flags, unless the option under test replaces them.
BASE = {
    "compute": {"null_point": 0, "delta": 1},
    "screen": {"null_point": 0, "delta": 0.5, "crosstab": True},
    "track": {"null_point": 0, "delta": 0.05},
    "design": {**DESIGN, "thetas": "0,0.25,1.5"},
    "reliability": {**DESIGN, "r": 3, "thetas": "0,1"},
    "simulate": {**DESIGN, "replicates": 500, "theta1": 1, "r": 1},
}
# Two valid values per option, each giving other output than the other.
VALUES = {
    "null_point": (0.2, -0.5),
    "delta": (0.15, 0.02),
    "null_lo": (0.005, -2),
    "null_hi": (0.05, 3),
    "theta0": (0.1, -0.2),
    "n": (50, 400),
    "variance": (2, 0.5),
    "alpha": (0.1, 0.01),
    "level": (0.9, 0.99),
    "log10": (False, True),
    "welch": (True, False),
    "crosstab": (False, True),
    "r": (2, 0.5),
    "grid": ("-1:1:5", "0:2:3"),
    "thetas": ("0,0.5", "1,2"),
    "theta": (0.2, -0.1),
    "replicates": (300, 700),
    "seed": (5, 9),
    "chunks": (2, 3),
    "theta1": (0.8, 1.5),
    "out": ("a.txt", "b.txt"),
    "format": ("json", "csv"),
    "digits": (3, 9),
}
RESULT_INVARIANT = {("simulate", "chunks")}
PAIRS = [(command, opt.name) for opt in OPTIONS for command in opt.commands]


def _options(command: str, name: str, value) -> dict:
    """BASE with ``name`` set, minus what the option replaces, plus what it needs."""
    opts = dict(BASE[command])
    if name in ("null_lo", "null_hi"):
        del opts["null_point"], opts["delta"]
        opts.update(null_lo=-1, null_hi=1)
    if name == "grid":
        del opts["thetas"]
    opts[name] = value
    return opts


def _flags(opts: dict) -> list[str]:
    argv = []
    for name, value in opts.items():
        flag = name.replace("_", "-")
        if isinstance(value, bool):
            argv.append(f"--{flag}" if value else f"--no-{flag}")
        else:
            argv.append(f"--{flag}={value}")
    return argv


def _run(tmp_path, command: str, flags: dict, file_cfg: dict | None = None, argv=()):
    """(exit code, stdout, stderr, files written) of one run inside ``tmp_path``;
    ``argv`` follows the flags as given."""
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    for old in work.iterdir():
        old.unlink()
    argv, extra = [command], list(argv)
    if command in INPUTS:
        src = tmp_path / "input.csv"
        src.write_text(INPUTS[command])
        argv.append(str(src))

    def place(opts):  # out files go to the scratch directory
        return {k: str(work / v) if k == "out" and isinstance(v, str) else v for k, v in opts.items()}

    argv += _flags(place(flags)) + extra
    if file_cfg is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(place(file_cfg)))
        argv += ["--config", str(cfg)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {p.name: p.read_text() for p in work.iterdir()}
    return code, out.getvalue(), err.getvalue(), files


@pytest.mark.parametrize("command, name", PAIRS, ids=[f"{c}-{n}" for c, n in PAIRS])
def test_flag_and_config_agree_and_flag_wins(tmp_path, command, name):
    a, b = VALUES[name]
    as_flag = _run(tmp_path, command, _options(command, name, a))
    assert as_flag[0] == 0, as_flag[2]
    base = _options(command, name, a)
    del base[name]
    assert _run(tmp_path, command, base, {name: a}) == as_flag
    assert _run(tmp_path, command, _options(command, name, a), {name: b}) == as_flag
    if (command, name) not in RESULT_INVARIANT:
        assert _run(tmp_path, command, base, {name: b}) != as_flag


# Malformed values of each kind, with the one message a flag and a config key both give.
MALFORMED = {
    "_number": {"abc": "{name} must be a number, got 'abc'"},
    "_integer": {"1.5": "{name} must be an integer, got '1.5'",
                 "1e3": "{name} must be an integer, got '1e3'"},
    "_unit": {"2": "{name} must be in (0, 1), got '2'"},
}
BAD = [(command, opt.name, value, message.format(name=opt.name))
       for opt in OPTIONS for command in opt.commands
       for value, message in MALFORMED.get(opt.kind.__name__, {}).items()]


@pytest.mark.parametrize("command, name, value, message", BAD,
                         ids=[f"{c}-{n}-{v}" for c, n, v, _ in BAD])
def test_malformed_flag_and_config_fail_alike(tmp_path, command, name, value, message):
    """A flag value is checked by its option's kind, exactly as the same text in a config file."""
    base = _options(command, name, value)
    as_flag = _run(tmp_path, command, base)
    del base[name]
    assert as_flag == (3, "", f"sgpv: configuration error: {message}\n", {})
    assert _run(tmp_path, command, base, {name: value}) == as_flag


NUMBERS = [(command, opt.name) for opt in OPTIONS if opt.kind.__name__ == "_number"
           for command in opt.commands]


@pytest.mark.parametrize("command, name", NUMBERS, ids=[f"{c}-{n}" for c, n in NUMBERS])
@pytest.mark.parametrize("value", ["-1e308", "-1E-5", "-.5e3", "-inf", "-0.5"])
def test_negative_number_takes_space_form_as_equals_form(tmp_path, command, name, value):
    """``--name -1e308`` is the value -1e308, as ``--name=-1e308`` is, not a flag."""
    opts = _options(command, name, value)
    with_equals = _run(tmp_path, command, opts)
    flag = "--" + name.replace("_", "-")
    argv = [part for arg in _flags(opts)
            for part in (arg.split("=", 1) if arg.startswith(flag + "=") else [arg])]
    assert "argument" not in with_equals[2]  # argparse took the value as a value
    assert _run(tmp_path, command, {}, argv=argv) == with_equals


@pytest.mark.parametrize(
    "command, file_cfg, message",
    [
        ("screen", {"welch": "no"}, "welch must be true or false, got 'no'"),
        ("compute", {"log10": "false"}, "log10 must be true or false, got 'false'"),
        ("compute", {"delta": True}, "delta must be a number, got True"),
        ("design", {"delta": True}, "delta must be a number, got True"),
        ("compute", {"format": "xml"}, "format must be one of csv, json, got 'xml'"),
        ("design", {"format": "JSON"}, "format must be one of csv, json, got 'JSON'"),
        ("design", {"thetas": [0, float("nan")]}, "theta list [0.0, nan] holds a NaN"),
        ("compute", {"out": 1}, "out must be a string, got 1"),
    ],
    ids=["welch-text", "log10-text", "compute-delta-bool", "design-delta-bool", "format-xml",
         "format-upper-case", "thetas-array-nan", "out-number"],
)
def test_config_value_of_wrong_type_exit_3(tmp_path, command, file_cfg, message):
    flags = {k: v for k, v in BASE[command].items() if k not in file_cfg}
    code, out, err, files = _run(tmp_path, command, flags, file_cfg)
    assert (code, out, files) == (3, "", {})
    assert err == f"sgpv: configuration error: {message}\n"


def test_thetas_json_array_matches_comma_list(tmp_path):
    flags = {k: v for k, v in BASE["design"].items() if k != "thetas"}
    want = _run(tmp_path, "design", {**flags, "thetas": "0,0.5"})
    assert want[0] == 0
    assert _run(tmp_path, "design", flags, {"thetas": [0, 0.5]}) == want


def test_config_out_is_honoured(tmp_path):
    code, out, _, files = _run(tmp_path, "compute", BASE["compute"], {"out": "rows.csv"})
    assert (code, out) == (0, "")
    assert files["rows.csv"].startswith("id,lo,hi,p_delta,")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--digits", "3"), "unrecognized arguments: --digits 3"),
        (("--format", "csv"), "argument --format: invalid choice: 'csv' (choose from 'json')"),
    ],
    ids=["digits", "format-csv"],
)
def test_simulate_takes_only_its_options(capsys, flags, message):
    design = [f"--{k}={v}" for k, v in DESIGN.items()]
    code = main(["simulate", *design, "--replicates", "10", *flags])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"sgpv: configuration error: {message}\n"


# Raw input bytes: encodings, NUL, carriage returns, quotes and fields over the csv module's limit.
RAW_PIECES = [b"\xff", b"\xfe\xff", b"\xef\xbb\xbf", b"\xc3\xa9", b"\x00", b"\r", b"\r\n", b"\n",
              b",", b'"', b" ", b"1", b"-2.5", b"0.3", b"nan", b"inf", b"1e400", b"abc",
              b"1" * 140_000, b'"' + b"x" * 140_000 + b'"']
RAW_HEADERS = [
    ("compute", b"id,lo,hi"), ("compute", b"estimate,se"), ("screen", b"id,estimate,lo,hi,p_value"),
    ("screen", b"id,n1,mean1,sd1,n2,mean2,sd2"), ("track", b"t,lo,hi"), ("compute", b""),
]


# Input errors about the file or its header, which no data line causes.
HEADER_ERRORS = ("cannot read ", ": empty input ", "input needs ", "series is empty")


@pytest.fixture(scope="module")
def raw_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("raw")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(RAW_HEADERS),
    st.lists(st.sampled_from(RAW_PIECES), max_size=24),
    st.sampled_from([(), ("--format", "json"), ("--digits", "17")]),
)
@example(("track", b"t,lo,hi"), [b"1", b",", b"1", b",", b"1", b"\n"] * 2, ())  # a repeated t
def test_raw_input_bytes_never_raise(raw_dir, header, pieces, flags):
    """Any input bytes end in exit 0, 2 or 3 with one error line, never a traceback;
    an input error names its line unless it is about the file or its header."""
    command, names = header
    src = raw_dir / "input.csv"
    src.write_bytes(names + b"\n" + b"".join(pieces))
    argv = [command, str(src), "--null-point", "0", "--delta", "1", *flags,
            "--out", str(raw_dir / "out.txt")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") == (code != 0)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        message = err.getvalue().removeprefix("sgpv: input error: ")
        assert re.match(r"line \d+: ", message) or any(e in message for e in HEADER_ERRORS)
