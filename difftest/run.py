"""Byte-identity check of the sgpv command line tool against a base revision.

Run from the repository root:

    python3 difftest/run.py --base HEAD~1
    python3 difftest/run.py --base main --fuzz 20
    python3 difftest/run.py --base HEAD~1 --expect difftest/expect_subnormal_overlap.json

It unpacks ``src/`` at ``--base`` with ``git archive`` into a temporary
directory and runs every case through ``python -m sgpv.cli`` twice: once
on that tree and once on the working tree's ``src/``. Children run one at
a time, with the same argv, input files and working directory. A case is
identical when the exit code, stdout, stderr and the ``--out`` file (when
the case writes one) are the same bytes in both runs; the report names
each field that differs, one indented line each.

The cases:

- golden: every ``CASES`` entry of ``tests/test_cli_golden.py`` and its
  ``WIDE_RELIABILITY`` curve;
- bench: the ``perfbench/workloads.py`` inputs and ops at seeds 7001 and
  11, each table command at ``--digits`` 0, 6, 12, 13, 17 and 5000 and with
  ``--format json`` (``simulate`` writes JSON only, so it runs as given);
- variant: ``VARIANTS``, flag forms the golden cases leave out (``--log10``,
  ``--null-lo``/``--null-hi``, ``--welch``, ``--level``, ``--alpha``,
  ``--thetas``, ``--config``), over the golden inputs;
- usage: ``USAGE``, the help of the tool and of each subcommand, and the
  usage errors: no subcommand, an unknown subcommand or flag, a missing
  input, a ``--format`` or ``--digits`` the option does not take;
- fuzz: ``--fuzz`` inputs per subcommand that reads a file (compute,
  screen, track), drawn with a fixed seed: a header and up to 24 pieces
  drawn from ``RAW_HEADERS`` and ``RAW_PIECES`` in
  ``tests/test_cli_options.py``, written with ``--out``;
- expect: with ``--expect FILE``, the intended differences of the working
  tree, a JSON list of objects with ``argv``, optional ``stdin`` text, an
  optional ``closed`` list of the streams (``stdin``, ``stderr``) that the
  child starts without, the new ``stdout`` (``code`` 0 and empty ``stderr``
  unless given) and a free-text ``why`` that the harness does not read. An
  entry that writes a file names it with ``--out`` in its argv or with an
  ``out`` key (relative to the work directory); the file is removed before
  each run and compared, and ``out_text`` gives its new text (without it,
  the file must be absent). Such a case is expected when its working-tree
  run gives exactly that output and the base run differs from it. An entry
  with the argv and stdin of one of the cases above stands in for that case.

The harness imports only the standard library. The test constants are read
with ``ast`` from the test files, without importing them;
``perfbench/workloads.py`` is imported to write the benchmark inputs, and
needs numpy, as sgpv does. Before the summary, the report gives the line
count of each ``src/sgpv/*.py`` file that differs between the two trees
(``core.py: 275 -> 266``, 0 where a tree lacks the file), then the total.
The last line of the report is the summary; the exit status is 0 when
every case is identical or expected, 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TABLE_COMMANDS = ("compute", "design", "reliability", "screen", "track")
BENCH_SEEDS = (7001, 11)
BENCH_DIGITS = (0, 6, 12, 13, 17, 5000)  # 12, 13: each side of _table._BYTE_DIGITS
FUZZ_FLAGS = ((), ("--format", "json"), ("--digits", "17"))
FUZZ_NULL = ("--null-point", "0", "--delta", "1")
FUZZ_SEED = 0
CHILD_TIMEOUT_S = 600.0
SHOWN = 200  # characters of a differing line in the report
DESIGN = "--theta0 0 --delta 0.3 --n 100 --variance 1"
NARROW = {"theta0": 0, "delta": 0.5, "n": 16, "variance": 1}
# Ratio estimates, all positive, for --log10; the golden inputs each hold a row at or below 0.
RATIOS = ("id,estimate,lo,hi,p_value\nhr1,0.8,0.6,1.1,0.2\nhr2,2.1,1.5,2.9,0.001\n"
          "hr3,1.0,0.95,1.05,0.9\nopen,3,1.2,inf,0.01\n")
# (RATIOS or an input constant of tests/test_cli_golden.py or None, argv with {input}
# and {config} for the paths, the --config file's JSON object or None)
VARIANTS = (
    ("COMPUTE_IV", "compute {input} --null-lo=-1 --null-hi 1", None),
    ("COMPUTE_IV", "compute {input} --null-lo 0 --null-hi 2 --format json", None),
    ("COMPUTE_IV", "compute {input} --log10", None),
    ("RATIOS", "compute {input} --log10", None),
    ("RATIOS", "compute {input} --log10 --null-lo=-0.1 --null-hi 0.1 --digits 17", None),
    ("COMPUTE_IV", "compute {input} --null-point 0 --delta 1 --no-log10", None),
    ("COMPUTE_IV", "compute {input} --config {config}", {"null_point": 0, "delta": 0.5,
                                                         "digits": 4}),
    ("COMPUTE_SE", "compute {input} --null-point 0 --delta 0.5 --level 0.99", None),
    ("COMPUTE_SE", "compute {input} --null-point 0 --delta 0.5 --level 0.5 --format json", None),
    ("COMPUTE_SE", "compute {input} --null-lo=-0.5 --null-hi 0.5 --level 0.8 --log10", None),
    ("COMPUTE_SE", "compute {input} --config {config}", {"null_lo": -0.2, "null_hi": 0.3,
                                                         "level": 0.9}),
    ("SCREEN_P", "screen {input} --null-lo=-1 --null-hi 1 --crosstab --alpha 0.01", None),
    ("SCREEN_P", "screen {input} --null-point 0 --delta 1 --crosstab --alpha 0.2 --format json",
     None),
    ("RATIOS", "screen {input} --log10 --crosstab", None),
    ("RATIOS", "screen {input} --log10 --null-point 0 --delta 0.1 --level 0.9 --format json",
     None),
    ("SCREEN_P", "screen {input} --config {config}", {"null_point": 0, "delta": 0.5,
                                                      "crosstab": True, "alpha": 0.1}),
    ("SCREEN_G", "screen {input} --null-point 0 --delta 0.2 --welch --level 0.9", None),
    ("SCREEN_G", "screen {input} --null-lo=-0.5 --null-hi 0.5 --no-welch --level 0.99 "
                 "--format json", None),
    ("SCREEN_G", "screen {input} --null-point 0 --delta 0.2 --welch --crosstab --alpha 0.01",
     None),
    ("SCREEN_G", "screen {input} --config {config}", {"null_point": 0, "delta": 0.2,
                                                      "welch": True, "level": 0.8}),
    ("SCREEN_U", "screen {input} --null-lo 0 --null-hi 2 --log10", None),
    ("TRACK", "track {input} --null-lo=-0.05 --null-hi 0.05", None),
    ("TRACK", "track {input} --config {config} --null-point 0", {"delta": 0.02}),
    ("TRACK", "track {input} --config {config}", {"null_point": 0.1, "delta": 0.05,
                                                  "format": "json"}),
    (None, f"design {DESIGN} --alpha 0.01 --thetas=-0.5,0,0.5", None),
    (None, f"design {DESIGN} --alpha 0.2 --grid=-1:1:5 --format json", None),
    (None, f"design {DESIGN} --alpha 1.1102230246251568e-16 --thetas 0,1 --digits 17", None),
    (None, "design --config {config}", {**NARROW, "thetas": [0, 0.25, 1.5], "alpha": 0.1}),
    (None, f"reliability {DESIGN} --r 3 --alpha 0.01 --thetas=-1,0,1", None),
    (None, f"reliability {DESIGN} --r 3 --alpha 0.2 --thetas 0.5 --format json", None),
    (None, "reliability --config {config}", {**NARROW, "r": 1, "alpha": 0.1,
                                             "grid": "-1:1:5"}),
    # nesting gate closed with delta > 0, on a grid reaching both underflow tails
    (None, "design --theta0 0 --delta 0.5 --n 5 --variance 1 --grid=-40:40:801 --format json",
     None),
    (None, "reliability --theta0 0 --delta 0.5 --n 5 --variance 1 --grid=-40:40:801 "
           "--format json --r 1 --digits 17", None),
    (None, f"simulate {DESIGN} --alpha 0.01 --replicates 1000 --seed 5 --theta1 1 --r 2", None),
    (None, "simulate --theta0 0 --delta 0.5 --n 5 --variance 1 --alpha 0.2 --theta 0.1 "
           "--replicates 300 --theta1 1 --r 1", None),
    (None, "simulate --config {config}", {**NARROW, "replicates": 500, "seed": 9, "theta1": 0.5,
                                          "r": 0.5, "alpha": 0.1}),
)

# argv of the usage cases, {input} for the path of a compute input
USAGE = (
    "--help", "-h",
    *(f"{command} --help" for command in (*TABLE_COMMANDS, "simulate")),
    "", "frobnicate", "compute {input} --null-point 0 --delta 1 --bogus",
    "compute --null-point 0 --delta 1",
    "compute {input} --null-point 0 --delta 1 --format xml",
    "compute {input} --null-point 0 --delta 1 --digits x",
)


class Run(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    out: bytes | None


class Case(NamedTuple):
    name: str
    argv: tuple[str, ...]
    out: str | None  # the --out path the case writes, if any
    stdin: bytes | None = None  # None: read from /dev/null
    want: Run | None = None  # the working tree's output, for an intended difference
    closed: tuple[int, ...] = ()  # descriptors the child starts without


def module_constants(path: Path) -> dict:
    """The module-level ALL_CAPS assignments of ``path`` that evaluate from
    literals and each other, without importing the module."""
    namespace: dict = {"__builtins__": {}}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.Assign):
            continue
        if not all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets):
            continue
        code = compile(ast.Module([node], type_ignores=[]), str(path), "exec")
        try:
            exec(code, namespace)
        except NameError:  # built from an import, such as a hypothesis strategy
            continue
    return namespace


def golden_cases(work: Path) -> list[Case]:
    constants = module_constants(ROOT / "tests" / "test_cli_golden.py")
    cases = []
    for name, fixture, argv, _ in constants["CASES"]:
        path = work / f"golden-{name}.csv"
        if fixture is not None:
            path.write_text(fixture, encoding="utf-8")
        cases.append(Case(f"golden {name}", tuple(a.replace("{input}", str(path)) for a in argv),
                          None))
    cases.append(Case("golden wide-reliability", tuple(constants["WIDE_RELIABILITY"]), None))
    return cases


def variant_cases(work: Path) -> list[Case]:
    inputs = {**module_constants(ROOT / "tests" / "test_cli_golden.py"), "RATIOS": RATIOS}
    cases = []
    for k, (fixture, argv, config) in enumerate(VARIANTS):
        paths = {"input": work / f"variant-{k}.csv", "config": work / f"variant-{k}.json"}
        if fixture is not None:
            paths["input"].write_text(inputs[fixture], encoding="utf-8")
        if config is not None:
            paths["config"].write_text(json.dumps(config), encoding="utf-8")
        cases.append(Case(f"variant {k}", tuple(a.format(**paths) for a in shlex.split(argv)),
                          None))
    return cases


def bench_cases(work: Path) -> list[Case]:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look themselves up in sys.modules
    cases, seen = [], set()
    for seed in BENCH_SEEDS:
        for name in workloads.PREPARE:
            tmp = work / f"bench-{name}-{seed}"
            tmp.mkdir()
            prepared = workloads.prepare(name, seed, str(tmp))
            for op in [*prepared.full, prepared.minimal]:
                for argv in op.argvs:
                    variants = [()]
                    if argv[0] in TABLE_COMMANDS:
                        variants = [("--digits", str(d)) for d in BENCH_DIGITS]
                        variants.append(("--format", "json"))
                    for extra in variants:
                        full = (*argv, *extra)
                        if full not in seen:
                            seen.add(full)
                            cases.append(Case(f"bench {name} seed {seed}", full, None))
    return cases


def usage_cases(work: Path) -> list[Case]:
    path = work / "usage.csv"
    path.write_text("id,lo,hi\na,0.1,0.9\n", encoding="utf-8")
    return [Case(f"usage {k}", tuple(a.format(input=path) for a in shlex.split(argv)), None)
            for k, argv in enumerate(USAGE)]


def fuzz_cases(work: Path, per_command: int) -> list[Case]:
    constants = module_constants(ROOT / "tests" / "test_cli_options.py")
    headers, pieces = constants["RAW_HEADERS"], constants["RAW_PIECES"]
    rng = random.Random(FUZZ_SEED)
    cases = []
    for command in sorted({command for command, _ in headers}):
        names = [h for c, h in headers if c == command]
        for k in range(per_command):
            body = b"".join(rng.choice(pieces) for _ in range(rng.randint(0, 24)))
            path = work / f"fuzz-{command}-{k}.csv"
            path.write_bytes(rng.choice(names) + b"\n" + body)
            out = str(work / "fuzz-out.txt")
            argv = (command, str(path), *FUZZ_NULL, *rng.choice(FUZZ_FLAGS), "--out", out)
            cases.append(Case(f"fuzz {command} {k}", argv, out))
    return cases


def expect_cases(path: Path, work: Path) -> list[Case]:
    entries = json.loads(path.read_text(encoding="utf-8"))
    cases = []
    for k, e in enumerate(entries):
        argv = e["argv"]
        out = e.get("out", argv[argv.index("--out") + 1] if "--out" in argv else None)
        written = e["out_text"].encode("utf-8") if "out_text" in e else None
        cases.append(Case(f"expect {k}", tuple(argv), None if out is None else str(work / out),
                          e["stdin"].encode("utf-8") if "stdin" in e else None,
                          Run(e.get("code", 0), e["stdout"].encode("utf-8"),
                              e.get("stderr", "").encode("utf-8"), written),
                          tuple({"stdin": 0, "stderr": 2}[name] for name in e.get("closed", ()))))
    return cases


def unpack_base(rev: str, dest: Path) -> Path:
    """``src/`` at ``rev``, unpacked under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def line_counts(src: Path) -> dict[str, int]:
    """Lines of each ``sgpv/*.py`` file under ``src``, as ``wc -l`` counts them."""
    return {path.name: path.read_bytes().count(b"\n") for path in (src / "sgpv").glob("*.py")}


def run_case(case: Case, src: Path, cwd: Path) -> Run:
    if case.out is not None and os.path.lexists(case.out):
        os.remove(case.out)
    env = dict(os.environ, PYTHONPATH=str(src))
    stdin = {"stdin": subprocess.DEVNULL} if case.stdin is None else {"input": case.stdin}
    proc = subprocess.run([sys.executable, "-m", "sgpv.cli", *case.argv], cwd=cwd, env=env,
                          **stdin, capture_output=True, timeout=CHILD_TIMEOUT_S, check=False,
                          preexec_fn=(lambda: [os.close(fd) for fd in case.closed])
                          if case.closed else None)
    out = None
    if case.out is not None and os.path.isfile(case.out):
        out = Path(case.out).read_bytes()
    return Run(proc.returncode, proc.stdout, proc.stderr, out)


def differences(base: Run, head: Run) -> list[str]:
    """Each field in which ``head`` differs from ``base``, one line each: the exit
    code, the first differing line of stdout and of stderr, and the ``--out`` file
    (it appears, is gone, or its first differing line); empty where the runs are
    identical."""
    found = [] if base.code == head.code else [f"exit code {base.code} -> {head.code}"]
    for stream, name in (("stdout", "stdout"), ("stderr", "stderr"), ("out", "--out file")):
        old, new = getattr(base, stream), getattr(head, stream)
        if old == new:
            continue
        if old is None or new is None:
            found.append(f"{name} {'appears' if old is None else 'is gone'}")
            continue
        old_lines, new_lines = old.split(b"\n"), new.split(b"\n")
        k = next((k for k, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b),
                 min(len(old_lines), len(new_lines)))
        shown = [lines[k][:SHOWN] if k < len(lines) else b"<end>" for lines in (old_lines, new_lines)]
        found.append(f"{name} line {k + 1}: {shown[0]!r} -> {shown[1]!r}")
    return found


def report(verdict: str, case: Case, lines: list[str]) -> None:
    print("\n    ".join([f"{verdict} {case.name}: sgpv {shlex.join(case.argv)}", *lines]),
          flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--fuzz", type=int, default=50, help="fuzzed inputs per subcommand")
    parser.add_argument("--expect", type=Path, help="JSON list of intended differences")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="sgpv-difftest-") as tmp:
        tmp = Path(tmp)
        work = tmp / "cases"
        work.mkdir()
        base_src = unpack_base(args.base, tmp / "base")
        cases = golden_cases(work) + variant_cases(work) + bench_cases(work)
        cases += usage_cases(work) + fuzz_cases(work, args.fuzz)
        listed = expect_cases(args.expect, work) if args.expect else []
        replaced = {(case.argv, case.stdin) for case in listed}
        cases = [case for case in cases if (case.argv, case.stdin) not in replaced] + listed
        started, different, expected = time.perf_counter(), 0, 0
        for case in cases:
            base = run_case(case, base_src, work)
            head = run_case(case, ROOT / "src", work)
            found = differences(base, head)
            if case.want is not None:
                missed = differences(case.want, head)
                if found and not missed:
                    expected += 1
                    report("EXPECTED", case, found)
                    continue
                found = ([f"not the listed output: {line}" for line in missed] or
                         ["listed as a difference, but the base gives the same output"])
            if found:
                different += 1
                report("DIFFERENT", case, found)
        base_lines, head_lines = line_counts(base_src), line_counts(ROOT / "src")
        for name in sorted(base_lines.keys() | head_lines.keys()):
            if base_lines.get(name, 0) != head_lines.get(name, 0):
                print(f"{name}: {base_lines.get(name, 0)} -> {head_lines.get(name, 0)}")
        print(f"src/sgpv: {sum(base_lines.values())} -> {sum(head_lines.values())} lines")
    elapsed = time.perf_counter() - started
    print(f"difftest against {args.base}: {len(cases)} cases, "
          f"{len(cases) - different - expected} identical, {expected} expected, "
          f"{different} different ({elapsed:.0f} s)")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
