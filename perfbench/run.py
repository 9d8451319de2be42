"""Benchmark of the sgpv command line tool, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload compute_intervals --seed 1 --seconds 25 --trace 0

Workloads: compute_intervals, screen_groups, simulate_mc, curves (see
``workloads.py`` and ``BENCHMARK.json``).

``--trace 0`` is a closed loop with one client: it spawns one
``python -m sgpv.cli`` child at a time (``PYTHONPATH=src``, BLAS and
OpenMP threads set to 1) and waits for it. It runs the minimal op
(one row, replicate or grid point: interpreter start, imports, argument
resolution, exit) SETUP_OPS times, then cycles through the full-size ops
until the next cycle would overrun ``--seconds``. It reports

    items_per_s  work items of a full op / median full-op wall time
    setup_s      median wall time of the minimal op
    peak_rss_mb  median of the full ops' peak resident set (wait4 rusage)
    ok_ratio     ops that passed / ops attempted (1 - fail_ratio)

``--trace 1`` measures ``python -X importtime -c "import sgpv.cli"`` and
then runs the full op in one process through ``traced.py``, untraced and
traced, and reports the per-layer metrics listed in BENCHMARK.json.

Every op's output is checked against ``reference.py`` outside the timed
window. An op fails on a nonzero exit, a traceback on stderr or a failed
check. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 60.0
IMPORTTIME_RUNS = 3
# Minimal ops per run for setup_s; the rest of the run goes to full ops,
# since the machine's speed varies from op to op and items_per_s needs
# the samples more.
SETUP_OPS = 3


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


@dataclass
class Tally:
    """Pass/fail bookkeeping shared by both modes."""

    workload: workloads.Prepared
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    mix: dict[str, int] = field(default_factory=dict)
    verified: dict[tuple, str] = field(default_factory=dict)  # command -> output digest
    invariant: object = None

    def judge(self, minimal: bool, argvs, codes, stdouts: list[bytes], stderrs: list[bytes]) -> bool:
        """Count one op and decide whether it passed."""
        self.attempted += 1
        why = []
        for argv, code, err in zip(argvs, codes, stderrs):
            if code != 0:
                why.append(f"exit {code} from {argv[0]}: {err[-200:]!r}")
            elif b"Traceback" in err:
                why.append(f"traceback on stderr from {argv[0]}")
        if not why:
            why = self._check(minimal, argvs, stdouts)
        if why:
            self.failed += 1
            if len(self.problems) < 8:
                self.problems.extend(why[:2])
        return not why

    def _check(self, minimal: bool, argvs, stdouts: list[bytes]) -> list[str]:
        key = (minimal, tuple(argvs))
        digest = hashlib.sha256(b"\0".join(stdouts)).hexdigest()
        if key in self.verified:
            same = self.verified[key] == digest
            return [] if same else ["output differs from an earlier run of the same command"]
        try:
            texts = [s.decode("utf-8") for s in stdouts]
        except UnicodeDecodeError:
            return ["output is not UTF-8"]
        wl = self.workload
        try:
            chk = reference.check(wl.name, wl.data, minimal, texts)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            return [f"output check could not read the output: {exc!r}"]
        if not chk.ok:
            return chk.problems
        if not minimal:
            self.mix = chk.mix
            if self.invariant is None:
                self.invariant = chk.invariant
            elif chk.invariant != self.invariant:
                return [f"results differ between full ops: {chk.invariant} vs {self.invariant}"]
        self.verified[key] = digest
        return []


def percentile_note(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = (f"median {statistics.median(samples):.4f} s over n={n} "
            f"[{' '.join(f'{x:.3f}' for x in samples)}]")
    if n < 11:
        return text + "; no percentile has >=10 samples beyond it"
    pct = int(100 * (1 - 10 / n))
    value = float(np.percentile(samples, pct))
    return text + f"; p{pct} {value:.4f} s ({n - int(np.ceil(n * pct / 100))} samples beyond)"


# ------------------------------------------------------------------ end to end


def run_op(op: workloads.Op, tmp: Path) -> tuple[float, float, list[int], list[bytes], list[bytes]]:
    wall = rss = 0.0
    codes, outs, errs = [], [], []
    for i, argv in enumerate(op.argvs):
        out_path, err_path = tmp / f"out{i}", tmp / f"err{i}"
        w, r, code = spawn([sys.executable, "-m", "sgpv.cli", *argv], out_path, err_path)
        wall, rss = wall + w, max(rss, r)
        codes.append(code)
        outs.append(out_path.read_bytes())
        errs.append(err_path.read_bytes())
    return wall, rss, codes, outs, errs


def end_to_end(wl: workloads.Prepared, seconds: float, tmp: Path):
    tally = Tally(wl)
    setup, full, rss = [], [], []
    began = time.perf_counter()
    for _ in range(SETUP_OPS):
        if time.perf_counter() - began > seconds:
            break
        wall, _, codes, outs, errs = run_op(wl.minimal, tmp)
        if tally.judge(True, wl.minimal.argvs, codes, outs, errs):
            setup.append(wall)
    ops = 0
    while True:
        cycle_start = time.perf_counter()
        for op in wl.full:  # whole cycles, so the medians weigh every variant equally
            wall, peak, codes, outs, errs = run_op(op, tmp)
            if tally.judge(False, op.argvs, codes, outs, errs):
                full.append(wall)
                rss.append(peak)
            ops += 1
        now = time.perf_counter()
        if now - began + (now - cycle_start) > seconds:
            break
    items = wl.full[0].items
    metrics = {
        "items_per_s": items / statistics.median(full) if full else 0.0,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    notes = [
        f"closed loop, 1 client: {SETUP_OPS} minimal ops, then {ops} full ops "
        f"of {items} items",
        f"full op wall: {percentile_note(full) if full else 'no passing op'}",
        f"minimal op wall: {percentile_note(setup) if setup else 'no passing op'}",
        f"fail_ratio {tally.failed / tally.attempted:.4f} ratio "
        f"({tally.failed} of {tally.attempted} ops failed)",
    ]
    return metrics, tally, notes


# --------------------------------------------------------------------- traced


def import_times() -> dict[str, float]:
    """Seconds spent importing sgpv.cli in total, in numpy's and in scipy's modules."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sgpv.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        total = numpy_us = scipy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            self_us, module = int(parts[0]), parts[2].strip()
            total += self_us
            top = module.split(".")[0]
            numpy_us += self_us if top == "numpy" else 0
            scipy_us += self_us if top == "scipy" else 0
        runs.append((total, numpy_us, scipy_us))
    total, numpy_us, scipy_us = (statistics.median(col) / 1e6 for col in zip(*runs))
    return {"cli.import_s": total, "cli.import_numpy_s": numpy_us, "cli.import_scipy_s": scipy_us}


@dataclass
class Layers:
    """Per-label aggregates of one traced pass."""

    calls: dict[str, int]
    self_s: dict[str, float]
    incl_s: dict[str, float]
    counts: dict[str, int]
    intersect_in_core: int


def aggregate(dump_path: str) -> Layers:
    """Self time = span duration minus the time its direct child spans cover."""
    with np.load(dump_path) as d:
        name, parent, start, end = d["name"], d["parent"], d["start"], d["end"]
        labels, counts = list(d["labels"]), dict(zip(d["count_labels"], d["counts"].tolist()))
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
    n = len(labels)
    calls = np.bincount(name, minlength=n)
    self_s = np.bincount(name, weights=dur - child, minlength=n)
    incl = np.bincount(name, weights=dur, minlength=n)
    core = [i for i, lab in enumerate(labels) if lab.startswith("core.")]
    in_core = 0
    if "intervals.intersect" in labels:
        is_intersect = (name == labels.index("intervals.intersect")) & has_parent
        in_core = int(np.isin(name[parent[is_intersect]], core).sum())
    return Layers(
        {lab: int(calls[i]) for i, lab in enumerate(labels)},
        {lab: float(self_s[i]) for i, lab in enumerate(labels)},
        {lab: float(incl[i]) for i, lab in enumerate(labels)},
        {str(k): int(v) for k, v in counts.items()},
        in_core,
    )


def layer_metrics(layers: list[Layers], items: int, replicates: int) -> dict[str, float]:
    """Per-layer metrics; times are medians over the traced repetitions."""
    first = layers[0]

    def calls(label: str) -> int:
        return first.calls.get(label, 0)

    def self_s(label: str) -> float:
        return statistics.median(rep.self_s.get(label, 0.0) for rep in layers)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    sim_s = statistics.median(
        rep.incl_s.get("simulate.simulate_outcomes", 0.0)
        + rep.incl_s.get("simulate.simulate_reliability", 0.0) for rep in layers
    )
    objects = first.counts.get("intervals.ExtendedInterval", 0)
    m = {
        "cli.main.self_s": self_s("cli.main"),
        "intervals.ExtendedInterval.count": objects,
        "intervals.objects_per_item": per(objects, items),
        "core.calls_per_item": per(calls("core.second_gen_p"), items),
        "core.intersect_per_call": per(first.intersect_in_core, calls("core.second_gen_p")),
        "normal.quantile_calls_per_item": per(calls("_normal.norm_quantile"), items),
        "simulate.replicates_per_s": per(2 * replicates, sim_s),
    }
    for label in set().union(*(rep.calls for rep in layers)):
        name = label.lstrip("_")  # metric names start with a letter: _normal -> normal
        m[f"{name}.calls"] = calls(label)
        m[f"{name}.self_s"] = self_s(label)
    return m


def traced(wl: workloads.Prepared, seconds: float, tmp: Path):
    tally = Tally(wl)
    began = time.perf_counter()
    metrics = import_times()
    op = wl.full[0]
    outs = {kind: [str(tmp / f"{kind}{i}") for i in range(len(op.argvs))]
            for kind in ("untraced", "traced", "warmup")}
    spec = {
        "argvs": op.argvs, "untraced_outs": outs["untraced"], "traced_outs": outs["traced"],
        "warmup": {"argvs": wl.minimal.argvs, "outs": outs["warmup"]},
        "seconds": max(0.0, seconds - (time.perf_counter() - began)),
        "dump_dir": str(tmp),
    }
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "traced.py"), str(spec_path)],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    reps = json.loads(proc.stdout.strip().splitlines()[-1])["reps"]
    layers, ratios = [], []
    n = len(op.argvs)
    for rep in reps:
        layers.append(aggregate(rep["dump"]))
        ratios.append(rep["traced_s"] / rep["untraced_s"])
        for kind, codes in (("untraced", rep["codes"][:n]), ("traced", rep["codes"][n:])):
            stdouts = [Path(p).read_bytes() for p in outs[kind]]
            stderr = [b"" if c == 0 else str(c).encode() for c in codes]
            passed = tally.judge(False, op.argvs, codes, stdouts, stderr)
            if kind == "traced" and passed and (layers[-1].calls, layers[-1].counts) != (
                    layers[0].calls, layers[0].counts):
                tally.failed += 1
                tally.problems.append("call counts differ between traced repetitions")
    replicates = op.items if wl.name == "simulate_mc" else 0
    metrics.update(layer_metrics(layers, op.items, replicates))
    metrics["cli.bytes_out"] = sum(Path(p).stat().st_size for p in outs["traced"])
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    notes = [f"{len(reps)} traced repetitions of the full op in one process; "
             f"untraced wall median {statistics.median(r['untraced_s'] for r in reps):.4f} s"]
    notes += layer_table(layers[0])
    return metrics, tally, notes


def layer_table(layers: Layers) -> list[str]:
    rows = [f"{'span':40s} {'calls':>10s} {'self_s':>10s} {'incl_s':>10s}"]
    for label in sorted(layers.calls, key=lambda lab: -layers.self_s[lab]):
        if not layers.calls[label]:
            continue
        rows.append(f"{label:40s} {layers.calls[label]:>10d} "
                    f"{layers.self_s[label]:>10.4f} {layers.incl_s[label]:>10.4f}")
    for label, count in layers.counts.items():
        rows.append(f"{label + ' (constructed)':40s} {count:>10d}")
    return rows


# ----------------------------------------------------------------------- main


def environment() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": str(os.cpu_count()),
            "machine": platform.machine(), **THREAD_ENV}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sgpv" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no sgpv sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        wl = workloads.prepare(args.workload, args.seed, str(tmp))
        mode = traced if args.trace else end_to_end
        values, tally, notes = mode(wl, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not args.trace:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    for name in missing:  # a traced function that no longer exists did no work
        values[name] = 0.0
        notes.append(f"not traced (function absent): {name}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print("mix " + " ".join(f"mix.{k}={v}" for k, v in tally.mix.items()))
    for line in notes:
        print("  " + line)
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    for m in wanted:
        print(f"{m['name']:40s} {values[m['name']]:>16.6g} {m['unit']}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
