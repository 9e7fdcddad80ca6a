"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces public functions of the iirsim layers at their
module (or class) attribute with timing wrappers and puts every original back
when the block ends, also on error. No source file of the program changes.

To keep the trace bounded, only coarse calls (`COARSE`) are kept as spans
with start, end and the span that caused them. Every call, coarse or not, is
folded into an in-memory aggregate keyed by `(name, parent name)` holding the
call count, the total time and the self time (duration minus the time of the
wrapped calls it made). Per-hop functions such as `EnergyLedger.debit` run
about a million times in a run, so they exist only as aggregates.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from iirsim import (aggregation, config, dissemination, energy, engine,
                    metrics, pipeline, topology)

ROOT_NAME = "<root>"
STAGES = ("priority_analysis", "opinion_analysis", "review_analysis",
          "sentiment_classify")
COARSE = {"config.parse_scenario", "engine.run", "metrics.serialize",
          "topology.build_topology", "topology.recompute_routes",
          "pipeline.run_pipeline"}


def _observe_send(counters, args, result):
    events, delivered, lost = result
    counters["dissemination.hops"] += len(events)
    counters["dissemination.bits"] += sum(ev.packet.bits for ev in events)
    counters["dissemination.delivered"] += len(delivered)
    counters["dissemination.lost"] += lost


def _observe_dedup(counters, args, result):
    counters["aggregation.deduplicate.in"] += len(args[0].readings)
    counters["aggregation.deduplicate.kept"] += len(result.readings)


def _observe_stage(stage):
    def observe(counters, args, result):
        counters[f"pipeline.{stage}.in"] += len(args[0])
        counters[f"pipeline.{stage}.kept"] += len(result[0])
    return observe


# (owner, attribute, observer of (counters, args, result) or None)
TARGETS: List[Tuple[object, str, Optional[Callable]]] = [
    (config, "parse_scenario", None),
    (engine, "run", None),
    (engine, "sense", None),
    (engine.GroundTruth, "advance", None),
    (topology, "build_topology", None),
    (topology, "recompute_routes", None),
    (topology, "hop_distances", None),
    (topology, "sink_reachable", None),
    (dissemination, "send_along", _observe_send),
    (energy.EnergyLedger, "debit", None),
    (aggregation, "collect_round", None),
    (aggregation, "deduplicate", _observe_dedup),
    (pipeline, "run_pipeline", None),
    *[(pipeline, stage, _observe_stage(stage)) for stage in STAGES],
    (metrics, "record", None),
    (metrics, "serialize", None),
]

COUNTER_NAMES = (
    "dissemination.hops", "dissemination.bits", "dissemination.delivered",
    "dissemination.lost", "aggregation.deduplicate.in",
    "aggregation.deduplicate.kept",
    *[f"pipeline.{s}.{k}" for s in STAGES for k in ("in", "kept")],
)


def target_name(owner, attr: str) -> str:
    """`layer.attr` for module functions, `layer.Class.attr` for methods."""
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Collects spans of coarse calls and aggregates of every wrapped call."""

    def __init__(self):
        self.origin = time.perf_counter()
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.aggregates: Dict[Tuple[str, str], List[float]] = {}
        # (id, name, parent span id or None, start, end), start-relative seconds
        self.spans: List[Tuple[int, str, Optional[int], float, float]] = []
        self.counters: Dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)
        # frames: [name, seconds spent in wrapped children, enclosing span id]
        self._stack: List[list] = [[ROOT_NAME, 0.0, None]]

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]):
        stack, aggregates, spans = self._stack, self.aggregates, self.spans
        counters, clock, origin = self.counters, time.perf_counter, self.origin
        coarse = name in COARSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = None
            if coarse:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled in on return
            frame = [name, 0.0, span_id if coarse else parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                agg = aggregates.get((name, parent[0]))
                if agg is None:
                    agg = aggregates[(name, parent[0])] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                if coarse:
                    spans[span_id] = (span_id, name, parent[2],
                                      t0 - origin, t1 - origin)
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, observe in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrap(target_name(owner, attr), original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return sum(a[0] for (n, _), a in self.aggregates.items() if n == name)

    def self_seconds(self, name: str) -> float:
        return sum(a[2] for (n, _), a in self.aggregates.items() if n == name)

    def reconcile(self, report: metrics.MetricsReport) -> List[str]:
        """Problems where the trace disagrees with the report, so that a call
        path that skips a wrapper shows up; empty when they agree."""
        c = self.counters
        pairs = [
            ("engine.sense.calls", self.calls("engine.sense"),
             report.readings_generated),
            ("dissemination.bits", c["dissemination.bits"],
             report.total_bits_transmitted),
        ]
        if report.mode == "framework":
            pairs.append(("aggregation.deduplicate.kept",
                          c["aggregation.deduplicate.kept"],
                          report.readings_after_dedup))
            for stage, field in zip(STAGES, ("priority", "opinion", "review",
                                             "sentiment")):
                pairs.append((f"pipeline.{stage}.kept",
                              c[f"pipeline.{stage}.kept"],
                              getattr(report, f"readings_after_{field}")))
        else:
            pairs.append(("pipeline.run_pipeline.calls",
                          self.calls("pipeline.run_pipeline"), 0))
        return [f"trace {name} = {got} but report says {want}"
                for name, got, want in pairs if got != want]

    def to_json(self) -> dict:
        return {
            "spans": [dict(zip(("id", "name", "parent", "start_s", "end_s"), s))
                      for s in self.spans],
            "aggregates": [{"name": n, "parent": p, "calls": a[0],
                            "total_s": a[1], "self_s": a[2]}
                           for (n, p), a in sorted(self.aggregates.items())],
            "counters": dict(self.counters),
        }


SELF_TIMED = (
    "config.parse_scenario", "engine.run", "engine.sense",
    "engine.GroundTruth.advance", "topology.build_topology",
    "topology.recompute_routes", "topology.hop_distances",
    "topology.sink_reachable", "dissemination.send_along",
    "energy.EnergyLedger.debit", "aggregation.collect_round",
    "aggregation.deduplicate", "pipeline.run_pipeline",
    *[f"pipeline.{s}" for s in STAGES], "metrics.record", "metrics.serialize",
)
CALL_COUNTED = (
    "topology.recompute_routes", "topology.hop_distances",
    "dissemination.send_along", "energy.EnergyLedger.debit", "metrics.record",
    "engine.sense",
)


def _share(part: int, whole: int) -> float:
    # 0.0 when the layer saw no input, as `pipeline.*` in baseline mode
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced run, by name (see `unit`)."""
    c = tracer.counters
    m: Dict[str, float] = {}
    for name in SELF_TIMED:
        m[f"{name}.s"] = tracer.self_seconds(name)
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = tracer.calls(name)
    m["dissemination.hops"] = c["dissemination.hops"]
    m["dissemination.delivered_frac"] = _share(
        c["dissemination.delivered"],
        c["dissemination.delivered"] + c["dissemination.lost"])
    m["aggregation.dedup_kept_frac"] = _share(
        c["aggregation.deduplicate.kept"], c["aggregation.deduplicate.in"])
    for stage in STAGES:
        m[f"pipeline.{stage}.in"] = c[f"pipeline.{stage}.in"]
        m[f"pipeline.{stage}.kept_frac"] = _share(
            c[f"pipeline.{stage}.kept"], c[f"pipeline.{stage}.in"])
    return m


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"
