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
the case writes one) are the same bytes in both runs.

The cases:

- golden: every ``CASES`` entry of ``tests/test_cli_golden.py`` and its
  ``WIDE_RELIABILITY`` curve;
- bench: the ``perfbench/workloads.py`` inputs and ops at seeds 7001 and
  11, each table command at ``--digits`` 0, 6, 17 and 5000 and with
  ``--format json`` (``simulate`` writes JSON only, so it runs as given);
- fuzz: ``--fuzz`` inputs per subcommand that reads a file (compute,
  screen, track), drawn with a fixed seed: a header and up to 24 pieces
  drawn from ``RAW_HEADERS`` and ``RAW_PIECES`` in
  ``tests/test_cli_options.py``, written with ``--out``;
- expect: with ``--expect FILE``, the intended differences of the working
  tree, a JSON list of objects with ``argv``, optional ``stdin`` text, the
  new ``stdout`` (``code`` 0 and empty ``stderr`` unless given) and a
  free-text ``why`` that the harness does not read. Such a case is
  expected when its working-tree run gives exactly that output and the
  base run differs from it.

The harness imports only the standard library. The test constants are read
with ``ast`` from the test files, without importing them;
``perfbench/workloads.py`` is imported to write the benchmark inputs, and
needs numpy, as sgpv does. The last line of the report is the summary;
the exit status is 0 when every case is identical or expected, 1 otherwise.
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
BENCH_DIGITS = (0, 6, 17, 5000)
FUZZ_FLAGS = ((), ("--format", "json"), ("--digits", "17"))
FUZZ_NULL = ("--null-point", "0", "--delta", "1")
FUZZ_SEED = 0
CHILD_TIMEOUT_S = 600.0
SHOWN = 200  # characters of a differing line in the report


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


def expect_cases(path: Path) -> list[Case]:
    entries = json.loads(path.read_text(encoding="utf-8"))
    return [Case(f"expect {k}", tuple(e["argv"]), None,
                 e["stdin"].encode("utf-8") if "stdin" in e else None,
                 Run(e.get("code", 0), e["stdout"].encode("utf-8"),
                     e.get("stderr", "").encode("utf-8"), None))
            for k, e in enumerate(entries)]


def unpack_base(rev: str, dest: Path) -> Path:
    """``src/`` at ``rev``, unpacked under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_case(case: Case, src: Path, cwd: Path) -> Run:
    if case.out is not None and os.path.lexists(case.out):
        os.remove(case.out)
    env = dict(os.environ, PYTHONPATH=str(src))
    stdin = {"stdin": subprocess.DEVNULL} if case.stdin is None else {"input": case.stdin}
    proc = subprocess.run([sys.executable, "-m", "sgpv.cli", *case.argv], cwd=cwd, env=env,
                          **stdin, capture_output=True, timeout=CHILD_TIMEOUT_S, check=False)
    out = None
    if case.out is not None and os.path.isfile(case.out):
        out = Path(case.out).read_bytes()
    return Run(proc.returncode, proc.stdout, proc.stderr, out)


def first_difference(base: Run, head: Run) -> str | None:
    """Where ``head`` first differs from ``base``: the stream, the line and both
    versions; None where the runs are identical."""
    if base.code != head.code:
        return f"exit code {base.code} -> {head.code}"
    for stream in ("stdout", "stderr", "out"):
        old, new = getattr(base, stream), getattr(head, stream)
        if old == new:
            continue
        if old is None or new is None:
            return f"--out file {'appears' if old is None else 'is gone'}"
        old_lines, new_lines = old.split(b"\n"), new.split(b"\n")
        k = next((k for k, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b),
                 min(len(old_lines), len(new_lines)))
        shown = [lines[k][:SHOWN] if k < len(lines) else b"<end>" for lines in (old_lines, new_lines)]
        return f"{stream} line {k + 1}: {shown[0]!r} -> {shown[1]!r}"
    return None


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
        cases = golden_cases(work) + bench_cases(work) + fuzz_cases(work, args.fuzz)
        cases += expect_cases(args.expect) if args.expect else []
        started, different, expected = time.perf_counter(), 0, 0
        for case in cases:
            base = run_case(case, base_src, work)
            head = run_case(case, ROOT / "src", work)
            verdict = first_difference(base, head)
            if case.want is not None:
                missed = first_difference(case.want, head)
                if missed is None and verdict is not None:
                    expected += 1
                    print(f"EXPECTED {case.name}: sgpv {shlex.join(case.argv)}\n    {verdict}",
                          flush=True)
                    continue
                verdict = (f"not the listed output: {missed}" if missed else
                           "listed as a difference, but the base gives the same output")
            if verdict is not None:
                different += 1
                print(f"DIFFERENT {case.name}: sgpv {shlex.join(case.argv)}\n    {verdict}",
                      flush=True)
    elapsed = time.perf_counter() - started
    print(f"difftest against {args.base}: {len(cases)} cases, "
          f"{len(cases) - different - expected} identical, {expected} expected, "
          f"{different} different ({elapsed:.0f} s)")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
