"""Benchmark of symcurv through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; symcurv is imported from ./src.
The run sets up the workload several times (fresh import of symcurv, inputs
from the seed, lazy caches warmed), then runs whole rounds of the
workload's fixed work until S seconds have passed (and at least the
workload's min_rounds), checks the outputs, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s (median set-up), wall_s (median
round) and peak_rss_mb; with --trace 1 they are the per-layer values of
layers.METRICS, each the median over rounds, and the spans are written to
perfbench/out/traces/<workload>.tsv.gz.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 7        # set-ups per run; setup_s is their median
MODULES = ("symfun", "combop", "cones", "hypcheck", "concave", "geomsolve", "cli")

sys.path.insert(0, HERE)

from workloads import WORKLOADS, Failed  # noqa: E402


class Context:
    """What a workload may use besides symcurv: the checkout root, fresh
    output directories, and the traced run's counters."""

    def __init__(self, root, tag):
        self.root = root
        self.run_dir = os.path.join(OUT, tag)
        self.tracer = None
        self._dirs = 0

    def fresh_dir(self):
        self._dirs += 1
        return os.path.join(self.run_dir, f"round-{self._dirs:04d}")

    def count(self, key, value):
        if self.tracer is not None:
            self.tracer.values[key] += value


def fresh_import():
    """Import symcurv anew (its modules are dropped from sys.modules first)."""
    for name in [m for m in sys.modules if m == "symcurv" or m.startswith("symcurv.")]:
        del sys.modules[name]
    importlib.import_module("symcurv")
    return SimpleNamespace(**{m: importlib.import_module(f"symcurv.{m}") for m in MODULES})


def compare_rounds(first, outputs, index):
    """Rounds repeat the same operations on the same inputs, so every round
    must reproduce the first one's outputs exactly (CSV bytes included)."""
    if outputs == first:
        return []
    diff = sum(a != b for a, b in zip(outputs, first)) + abs(len(outputs) - len(first))
    return [f"round {index} differs from round 1 in {diff} of {len(first)} outputs"]


def run(workload, seed, seconds, traced):
    """One benchmark run; returns the result dict that main() prints."""
    wl = WORKLOADS[workload]
    ctx = Context(ROOT, f"{workload}-seed{seed}-{os.getpid()}")
    setup_times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        sc = fresh_import()
        state = wl.setup(sc, seed, ctx)
        setup_times.append(perf_counter() - t0)

    tracer = None
    if traced:
        import layers

        tracer = ctx.tracer = layers.install(sc)
    round_times, first, problems = [], None, []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    try:
        while len(round_times) < wl.min_rounds or perf_counter() < deadline:
            if tracer is not None:
                token = tracer.begin_round()
            t0 = perf_counter()
            raw = wl.run_round(state, ctx)
            round_times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.close_round(token)
            outputs = wl.collect(state, raw, ctx)
            if tracer is not None:
                tracer.finish_round()
            attempted += len(outputs)
            failed += sum(isinstance(o, Failed) for o in outputs)
            if first is None:
                first = outputs
            else:
                problems += compare_rounds(first, outputs, len(round_times))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += wl.check(state, first)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(round_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.write(os.path.join(OUT, "traces", f"{workload}.tsv.gz"))
        metrics = {name: (statistics.median(r[name] for r in tracer.rounds), unit)
                   for name, unit in layers.METRICS.items()}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "round_times": round_times,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "symcurv", "__init__.py")):
        print(f"error: no symcurv sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    times = result.pop("round_times")
    print(f"rounds: {len(times)} ({', '.join(f'{t:.3f}' for t in times)} s)", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
