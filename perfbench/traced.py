"""In-process run of sgpv CLI calls, untraced and then traced.

Run by ``run.py --trace 1`` with ``PYTHONPATH`` pointing at the package:

    python3 perfbench/traced.py SPEC.json

SPEC holds the ops (``argvs`` per op and a stdout file per argv for the
untraced and the traced pass), a warm-up op, a time budget in seconds and
a dump directory. Each repetition runs the op once untraced, then wraps
the public functions named in ``SPANS`` at every module binding that
refers to them, runs the op again, restores the originals and dumps the
spans of that pass to ``rep<k>.npz``. Spans (name, parent, start, end)
are kept in memory until the dump. The last line of stdout is a JSON
object with the wall time of each pass and the CLI exit codes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import traceback
from array import array

import numpy as np

import sgpv.cli  # imports every sgpv module through the package

# Public functions traced per module; a name missing from a module is skipped.
SPANS = {
    "cli": ("main",),
    "intervals": ("intersect",),
    "core": ("second_gen_p", "delta_gap"),
    "_normal": ("norm_quantile", "norm_cdf"),
    "design": ("emit_power_curve", "outcome_probs", "prob_alt", "prob_null",
               "prob_inconclusive", "power_curve_csv"),
    "reliability": ("emit_reliability_curve", "fdr_sgpv", "fcr_sgpv",
                    "classical_beta", "reliability_curve_csv"),
    "screening": ("two_sample_ci", "batch_sgpv", "attach_adjustments", "bh_qvalues",
                  "ranked_indices", "cross_tab"),
    "simulate": ("simulate_outcomes", "simulate_reliability"),
}
# Classes whose constructions are counted (through __post_init__), not timed.
COUNTED = {"intervals": ("ExtendedInterval",)}


class Tracer:
    """Span recorder that patches the package's module globals while installed."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.name, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack = [-1]

    def clear(self) -> None:
        """Drop recorded spans and zero the counters, in place (wrappers hold them)."""
        for buf in (self.name, self.parent, self.start, self.end):
            del buf[:]
        del self._stack[1:]
        for label in self.counts:
            self.counts[label] = 0

    def _span(self, label: str, fn):
        if label not in self.labels:
            self.labels.append(label)
        label_id = self.labels.index(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(label_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _counter(self, label: str, fn):
        counts = self.counts
        counts.setdefault(label, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "sgpv" or n.startswith("sgpv.")]
        for mod_name, funcs in SPANS.items():
            home = sys.modules.get(f"sgpv.{mod_name}")
            for fn_name in funcs:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._span(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        for mod_name, classes in COUNTED.items():
            home = sys.modules.get(f"sgpv.{mod_name}")
            for cls_name in classes:
                cls = getattr(home, cls_name, None)
                original = getattr(cls, "__post_init__", None) if cls else None
                if original is None:
                    continue
                setattr(cls, "__post_init__",
                        self._counter(f"{mod_name}.{cls_name}", original))
                self._restore.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            labels=np.array(self.labels, dtype=str),
            count_labels=np.array(list(self.counts), dtype=str),
            counts=np.array(list(self.counts.values()), dtype=np.int64),
        )


def run_op(argvs, outs) -> tuple[float, list]:
    """Run each argv through ``sgpv.cli.main`` with stdout sent to its file."""
    codes: list = []
    t0 = time.perf_counter()
    for argv, out in zip(argvs, outs):
        with open(out, "w", encoding="utf-8", newline="") as fh, contextlib.redirect_stdout(fh):
            try:
                codes.append(sgpv.cli.main(list(argv)))
            except Exception:  # reported as a failed op, not a crash of the run
                codes.append(traceback.format_exc())
    return time.perf_counter() - t0, codes


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    run_op(spec["warmup"]["argvs"], spec["warmup"]["outs"])
    tracer = Tracer()
    reps = []
    began = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        untraced_s, untraced_codes = run_op(spec["argvs"], spec["untraced_outs"])
        tracer.clear()
        tracer.install()
        try:
            traced_s, traced_codes = run_op(spec["argvs"], spec["traced_outs"])
        finally:
            tracer.uninstall()
        dump = os.path.join(spec["dump_dir"], f"rep{len(reps)}.npz")
        tracer.dump(dump)
        reps.append({"untraced_s": untraced_s, "traced_s": traced_s, "dump": dump,
                     "codes": untraced_codes + traced_codes})
        now = time.perf_counter()
        if now - began + (now - rep_start) > spec["seconds"]:
            break
    print(json.dumps({"reps": reps}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
