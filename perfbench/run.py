"""The iirsim benchmark: time generated scenarios end to end, or per layer.

Usage:
    python3 perfbench/run.py --workload baseline-1600 --seed 1 --seconds 25 --trace 0
All three workloads, end to end:
    for w in baseline-1600 framework-400-drain framework-open-100; do
        python3 perfbench/run.py --workload $w; done
Tests of the benchmark's own code: python3 -m pytest perfbench -q

All runs are sequential in this one process (plus one child process for peak
memory). Every report is checked (see `harness.check_report`); every report
of a workload in one invocation must have the same sha256, and at the default
seed it must equal the pinned digest. A run that raises or fails a check
counts as failed.

With `--trace 0` the end-to-end metrics are measured untraced:
  run_s           median host time of one whole run, parse to digest
  setup_s         median host time of the same scenario with rounds = 0
  readings_per_s  median over runs of readings_generated / (run time - the
                  median time of the set-up runs made just before it)
  peak_rss_mib    peak memory of a fresh process running the workload once
With `--trace 1` untraced and traced runs alternate, and the per-layer
metrics (self times, call counts, stage ratios) and `trace_overhead_s` come
from the traced runs; the trace is also written under `.perfbench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"
CHILD_TIMEOUT_S = 170
MIN_SETUP_S = 0.2


class Book:
    """Counts runs of one workload and checks every report they give."""

    def __init__(self, harness, workload, seed: int):
        self.harness = harness
        self.pinned = (workload.pinned_sha256
                       if seed == harness.DEFAULT_SEED else None)
        self.initial_energy_j = harness.config.parse_scenario(
            workload.scenario_text(seed)).initial_energy_j
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}  # kind ("run" or "setup") -> first digest seen

    def check(self, kind: str, text: str, digest: str, extra=()) -> bool:
        self.attempted += 1
        problems = self.harness.check_report(
            text, self.initial_energy_j,
            self.pinned if kind == "run" else None) + list(extra)
        first = self.digests.setdefault(kind, digest)
        if digest != first:
            problems.append(f"digest {digest} differs from the first "
                            f"{kind} run's {first}")
        return self._tally(kind, problems)

    def crashed(self, kind: str, exc_text: str) -> None:
        self.attempted += 1
        self._tally(kind, [f"raised: {exc_text}"])

    def _tally(self, kind, problems) -> bool:
        if problems:
            self.failed += 1
            self.problems.extend(f"{kind} #{self.attempted}: {p}"
                                 for p in problems)
        return not problems


def timed_run(harness, book: Book, kind: str, text: str, tracer=None):
    """One checked run, traced when a tracer is given; returns the
    harness.RunResult, or None if it failed."""
    gc.collect()
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            result = harness.run_once(text)
    except Exception:  # a crash in the program is a failed run, not ours
        book.crashed(kind, traceback.format_exc(limit=3))
        return None
    extra = tracer.reconcile(result.report) if tracer else []
    ok = book.check(kind, result.text, result.digest, extra)
    return result if ok else None


def peak_rss_mib(book: Book, workload, seed: int):
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rss_child.py"), workload.name,
             str(seed)], capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip()[-2000:])
        out = json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError,
            IndexError) as exc:
        book.crashed("run", repr(exc))
        return None
    if not book.check("run", out["text"], out["digest"]):
        return None
    return out["peak_rss_kib"] / 1024.0


def measure_end_to_end(harness, book: Book, workload, seed: int,
                       seconds: float):
    """Alternate set-up and whole runs for `seconds`, so that both see the
    same host conditions; each whole run is paired with the set-up runs
    just before it, which gives one round-loop throughput sample."""
    # First, while this process is still small: Linux carries a process's
    # peak RSS across exec, so a child spawned later would inherit ours.
    rss = peak_rss_mib(book, workload, seed)
    setup_text = workload.scenario_text(seed, rounds=0)
    text = workload.scenario_text(seed)
    setup_times, run_times, rates = [], [], []
    start = time.perf_counter()
    while True:
        pair_setup, pair_start = [], time.perf_counter()
        # several set-up runs when they are short, so their median is steady
        while not pair_setup or time.perf_counter() - pair_start < MIN_SETUP_S:
            result = timed_run(harness, book, "setup", setup_text)
            if result is None:
                break
            pair_setup.append(result.seconds)
        result = timed_run(harness, book, "run", text)
        if pair_setup and result is not None:
            setup_times.extend(pair_setup)
            run_times.append(result.seconds)
            rates.append(result.report.readings_generated
                         / (result.seconds - statistics.median(pair_setup)))
        if time.perf_counter() - start >= seconds:
            break
    if not run_times or rss is None:
        return None
    return {
        "run_s": ("s", statistics.median(run_times), run_times),
        "setup_s": ("s", statistics.median(setup_times), setup_times),
        "readings_per_s": ("1/s", statistics.median(rates), rates),
        "peak_rss_mib": ("MiB", rss, [rss]),
    }


def measure_per_layer(harness, tracing, book: Book, workload, seed: int,
                      seconds: float):
    text = workload.scenario_text(seed)
    untraced, traced, per_run, last = [], [], [], None
    start = time.perf_counter()
    while True:
        result = timed_run(harness, book, "run", text)
        if result is not None:
            untraced.append(result.seconds)
        tracer = tracing.Tracer()
        result = timed_run(harness, book, "run", text, tracer)
        if result is not None:
            traced.append(result.seconds)
            per_run.append(tracing.layer_metrics(tracer))
            last = tracer
        if time.perf_counter() - start >= seconds:
            break
    if not untraced or not traced:
        return None, None, None
    out = {name: (tracing.unit(name),
                  statistics.median(m[name] for m in per_run),
                  [m[name] for m in per_run])
           for name in per_run[0]}
    base = statistics.median(untraced)
    out["trace_overhead_s"] = ("s", statistics.median(traced) - base,
                               [t - base for t in traced])
    return out, last, statistics.median(traced)


def write_trace(tracer, metrics, workload, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    doc = {"workload": workload.name, "seed": seed,
           "metrics": {k: v[1] for k, v in metrics.items()},
           **tracer.to_json()}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path.relative_to(HERE.parent)


def print_table(metrics, wall_s=None):
    for name, (unit, value, samples) in metrics.items():
        share = ""
        if wall_s and unit == "s" and name != "trace_overhead_s":
            share = f"  {100.0 * value / wall_s:5.1f} %"
        spread = (f"  min {min(samples):.6g} max {max(samples):.6g}"
                  if len(samples) > 1 else "")
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={len(samples)}"
              f"{share}{spread}")


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        import harness
        import tracing
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, sorted(harness.WORKLOADS))
    workload = harness.WORKLOADS[args.workload]
    book = Book(harness, workload, args.seed)

    if args.trace:
        metrics, tracer, traced_run_s = measure_per_layer(
            harness, tracing, book, workload, args.seed, args.seconds)
    else:
        metrics = measure_end_to_end(harness, book, workload, args.seed,
                                     args.seconds)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  report sha256 {book.digests.get('run', '-')}"
          + (f"  (pinned {book.pinned})" if book.pinned is not None else ""))
    print(f"  runs attempted {book.attempted}, failed {book.failed}")
    for problem in book.problems:
        print(f"  FAIL {problem}")
    if metrics is None:
        print("error: no run passed, nothing was measured", file=sys.stderr)
        return 1
    if args.trace:
        path = write_trace(tracer, metrics, workload, args.seed)
        print(f"  per-layer self time, % of the traced run "
              f"({traced_run_s:.3f} s); trace written to {path}")
        print_table(dict(sorted(metrics.items(),
                                key=lambda kv: (kv[1][0] != "s", -kv[1][1]))),
                    traced_run_s)
    else:
        print_table(metrics)
    print(json.dumps({
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
