"""The byte-identity harness's report, ``difftest/run.py``'s ``differences``.

The harness is loaded from its file and starts no child here: each test
compares two ``Run`` records, as the harness does for the base and the
working tree, and for a listed intended output and the working tree.
"""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "difftest_run", Path(__file__).resolve().parent.parent / "difftest" / "run.py")
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)


def test_identical_runs_give_nothing():
    same = run.Run(2, b"a\nb\n", b"sgpv: input error: x\n", b"")
    assert run.differences(same, run.Run(*same)) == []


def test_exit_code_and_out_file_are_both_named():
    base = run.Run(1, b"", b"", b"")  # an exit 1 that leaves a 0-byte --out file
    head = run.Run(2, b"", b"", None)
    assert run.differences(base, head) == ["exit code 1 -> 2", "--out file is gone"]


def test_out_file_on_one_side_only_is_named():
    without, written = run.Run(0, b"", b"", None), run.Run(0, b"", b"", b"id\n")
    assert run.differences(without, written) == ["--out file appears"]
    assert run.differences(written, without) == ["--out file is gone"]


def test_each_stream_names_its_first_differing_line():
    base = run.Run(0, b"h\n1\n2\n", b"", b"x\ny\n")
    head = run.Run(0, b"h\n1\n3\n", b"warn\n", b"x\nz\n")
    assert run.differences(base, head) == [
        "stdout line 3: b'2' -> b'3'",
        "stderr line 1: b'' -> b'warn'",
        "--out file line 2: b'y' -> b'z'",
    ]
