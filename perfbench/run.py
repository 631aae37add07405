"""Benchmark of the bipgirth CLI and library, in one process and thread.

    python3 perfbench/run.py --workload girth_large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, one child process each

Run from anywhere: the program is imported from `src/` next to this
directory, never from an installed copy.  A run sets up its workload
several times (`setup_s` is the median), then repeats whole passes over
the workload's operation list for `--seconds`, checking every output.
`--trace 0` prints the end-to-end metrics; `--trace 1` spends half the
time untraced and half with spans around the program's public
functions, and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("girth_large", "search_small", "lemma_lab")
SETUP_REPEATS = 9
MODULES = ("cli", "io", "digraph", "constructions", "search", "lemmas",
           "frontier", "audit")

sys.path[:0] = [HERE, SRC]
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_bipgirth():
    """Import bipgirth afresh from SRC; return its modules by short name."""
    for name in [m for m in sys.modules if m == "bipgirth" or m.startswith("bipgirth.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"bipgirth.{m}") for m in MODULES}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"bipgirth was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


class Runner:
    """Runs passes over a workload's operations and keeps the tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # outputs that failed their check
        self.reasons = []
        self.deferred = []      # (name, check, result) checked after the memory reading
        self.last_outputs = None

    def _fail(self, name, reason, wrong):
        self.failed += 1
        self.wrong += wrong
        if len(self.reasons) < 10:
            self.reasons.append(f"{name}: {reason}")

    def _check(self, name, check, result):
        try:
            reason = check(result)
        except Exception as exc:  # output the check cannot even read
            reason = f"check raised {exc!r}"
        if reason:
            self._fail(name, reason, 1)

    def run_pass(self):
        """Time one pass over the operations; return its seconds."""
        self.last_outputs = None  # keep one pass's outputs alive, not two
        gc.collect()
        total = 0.0
        outputs = []
        for op in self.workload.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception:  # a raising operation is counted, not fatal
                total += time.perf_counter() - t0
                self._fail(op.name, traceback.format_exc(limit=-1).strip().splitlines()[-1], 0)
                outputs.append(None)
                continue
            total += time.perf_counter() - t0
            outputs.append(workloads.normalized(result))
            if op.deferred:
                self.deferred.append((op.name, op.check, result))
            else:
                self._check(op.name, op.check, result)
        self.last_outputs = outputs
        return total

    def run_for(self, seconds, after_pass=None):
        """Whole passes until the next one would end after `seconds`."""
        times = []
        start = time.perf_counter()
        while True:
            times.append(self.run_pass())
            if after_pass:
                after_pass()
            if time.perf_counter() - start + statistics.median(times) > seconds:
                return times

    def finish_deferred(self):
        for name, check, result in self.deferred:
            self._check(name, check, result)
        self.deferred.clear()


def traced_passes(runner, modules, seconds, problems):
    """Passes with spans on; each per-layer metric is its median over them."""
    untraced_outputs = runner.last_outputs
    tracer = tracing.Tracer(modules)
    per_pass, marks = [], [0]

    def after_pass():
        per_pass.append(tracing.per_layer(tracer.totals(marks[-1])))
        marks.append(len(tracer.spans))
        if runner.last_outputs != untraced_outputs:
            problems.append("traced outputs differ from the untraced ones")
        problem = runner.workload.trace_check(per_pass[-1], tracer)
        if problem:
            problems.append(problem)

    tracer.install()
    try:
        times = runner.run_for(seconds, after_pass=after_pass)
    finally:
        tracer.restore()
    if not tracer.restored():
        problems.append("original functions not restored")
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit == "count" and len(set(values)) != 1:
            problems.append(f"{name} differs between passes: {values}")
        metrics[name] = (statistics.median(values), unit)
    return metrics, times, tracer


def run_workload(name, seed, seconds, traced):
    if not os.path.isfile(os.path.join(SRC, "bipgirth", "__init__.py")):
        print(f"error: no bipgirth package under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems = []
    budget = seconds / 2 if traced else seconds
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # drop the previous import before timing the next
            t0 = time.perf_counter()
            modules = import_bipgirth()
            work = workloads.SETUPS[name](modules, seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        runner = Runner(work)
        pass_times = runner.run_for(budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            layer, traced_times, tracer = traced_passes(runner, modules, budget, problems)
        runner.finish_deferred()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pass_s = statistics.median(pass_times)
    if traced:
        layer["trace.overhead_s"] = (statistics.median(traced_times) - pass_s, "s")
        metrics = layer
    else:
        metrics = {"setup_s": (statistics.median(setup_times), "s"),
                   "pass_s": (pass_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(traced)}")
    if traced:
        tracer.write(stem + "-spans.json")
    for line in runner.reasons + problems:
        print(f"{name}: {line}", file=sys.stderr)
    print(f"{name}: seed {seed}, {len(pass_times)} untraced passes"
          + (f", {len(traced_times)} traced passes" if traced else ""))
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:38s} {value:>16.6f} {unit}")
    print(f"  attempted {runner.attempted}, failed {runner.failed}")
    result = {
        "correct": runner.wrong == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, setup_times=setup_times, pass_times=pass_times), fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, traced):
    """Each workload in its own child process, so none inherits another's
    imports or memory peak; the last line maps workload to result."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
