"""Round-synchronous simulation loop for both network modes.

Every round runs, in order: sensing by alive sensors, sensor-to-aggregator
transfer, per-aggregator dedup, aggregator-to-sub-sink transfer, the
staircase filter at the sub-sink, and sub-sink-to-sink transfer of the
survivors. Baseline mode replaces the middle stages with forward-everything
direct to the sink. All randomness comes from purpose-salted streams
derived from the scenario seed, consumed in node-id order, so a (scenario,
seed) pair always reproduces the same run bit for bit.
"""
from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import aggregation, dissemination, metrics, pipeline, topology as topo_mod
from .config import ScenarioConfig
from .core import SensorReading, canonical_order, mix_seed
from .energy import EnergyLedger
from .metrics import MetricsReport
from .pipeline import ClassifierModel

_SENSE_SALT = 0x5E15E
_EVENT_SALT = 0xE4E47
TRAIN_SEED_OFFSET = 7919  # warm-up labeling run uses seed + this


@dataclass
class _Event:
    x: float
    y: float
    magnitude: float
    remaining: int


class GroundTruth:
    """Injected field events; visible to labeling and metrics only."""

    def __init__(self, scenario: ScenarioConfig, topo: topo_mod.Topology):
        self._sc = scenario
        self._topo = topo
        self._extent = topo.extent()
        self._active: List[_Event] = []
        self._affected_by_round: Dict[int, frozenset] = {}

    def advance(self, round_no: int, rng: random.Random) -> None:
        self._active = [e for e in self._active if e.remaining > 0]
        # one draw per round regardless of rate, to keep streams aligned
        spawn = rng.random() < self._sc.event_rate
        if spawn:
            x = rng.uniform(0.0, max(self._extent[0], 1.0))
            y = rng.uniform(0.0, max(self._extent[1], 1.0))
            self._active.append(_Event(x, y, self._sc.event_magnitude,
                                       self._sc.event_duration))
        affected = set()
        for node in self._topo.nodes:
            if node.role is not topo_mod.NodeRole.SENSOR:
                continue
            px, py = node.pos
            for e in self._active:
                if math.hypot(px - e.x, py - e.y) <= self._sc.event_radius:
                    affected.add(node.id)
                    break
        self._affected_by_round[round_no] = frozenset(affected)
        for e in self._active:
            e.remaining -= 1

    def magnitude_at(self, node: int, round_no: int) -> float:
        if node not in self._affected_by_round.get(round_no, ()):
            return 0.0
        px, py = self._topo.nodes[node].pos
        return sum(e.magnitude for e in self._active
                   if math.hypot(px - e.x, py - e.y) <= self._sc.event_radius)

    def is_event_reading(self, source: int, round_no: int) -> bool:
        return source in self._affected_by_round.get(round_no, ())

    def affected(self, round_no: int) -> frozenset:
        return self._affected_by_round.get(round_no, frozenset())


def sense(node: int, round_no: int, scenario: ScenarioConfig,
          ground_truth: GroundTruth, rng: random.Random) -> SensorReading:
    """One sample: base field + sinusoidal drift + noise + event bump."""
    drift = scenario.drift_amplitude * math.sin(
        2.0 * math.pi * round_no / scenario.drift_period)
    noise = rng.gauss(0.0, scenario.noise_sigma)
    value = (scenario.field_base + drift + noise
             + ground_truth.magnitude_at(node, round_no))
    return SensorReading(source=node, round=round_no, value=value)


@dataclass
class RunResult:
    report: MetricsReport
    delivered: Optional[List[SensorReading]] = None
    training_examples: Optional[List[Tuple[Tuple[float, ...], str]]] = None


class _Run:
    def __init__(self, scenario: ScenarioConfig,
                 model: Optional[ClassifierModel],
                 keep_delivered: bool, collect_training: bool):
        scenario.validate()
        self.sc = scenario
        self.model = model
        self.topo = topo_mod.build_topology(scenario, scenario.seed)
        topo_mod.recompute_routes(self.topo, scenario.mode)
        self.radio = scenario.radio()
        self.cfg = scenario.pipeline_config()
        self.ledger = EnergyLedger({
            n.id: (math.inf if n.id == self.topo.sink
                   else scenario.initial_energy_j)
            for n in self.topo.nodes})
        self.sense_rng = random.Random(mix_seed(scenario.seed, _SENSE_SALT))
        self.event_rng = random.Random(mix_seed(scenario.seed, _EVENT_SALT))
        self.gt = GroundTruth(scenario, self.topo)
        self.report = MetricsReport(mode=scenario.mode)
        self.history: pipeline.HistoryIndex = {}
        self.dedup_state: Dict[int, Dict[int, float]] = {
            a: {} for a in self.topo.aggregators}
        self.delivered_all: Optional[List[SensorReading]] = (
            [] if keep_delivered else None)
        self.training: Optional[List[Tuple[Tuple[float, ...], str]]] = (
            [] if collect_training else None)
        self._deaths_seen = 0
        self._routes_dirty = False

    # -- helpers -----------------------------------------------------------

    def _send(self, route, readings, round_no):
        _, delivered, lost = dissemination.send_along(
            route, readings, self.topo, self.radio, self.ledger, self.report,
            batch_cap=self.sc.batch_cap, round_no=round_no)
        self.report.readings_lost_in_transit += lost
        hops = len(route) - 1
        return delivered, hops

    def _deliver_to_sink(self, readings, hops_by_key, leg_hops, round_no):
        for r in readings:
            self.report.readings_delivered_to_sink += 1
            self.report.delivered_hops_total += hops_by_key.get(r.key(), 0) + leg_hops
            if self.gt.is_event_reading(r.source, round_no):
                self.report.event_readings_delivered += 1
            if self.delivered_all is not None:
                self.delivered_all.append(r)

    # -- round body --------------------------------------------------------

    def _sense_round(self, round_no):
        self.gt.advance(round_no, self.event_rng)
        readings = []
        for n in sorted(self.topo.sensors()):
            if n not in self.topo.alive:
                continue
            r = sense(n, round_no, self.sc, self.gt, self.sense_rng)
            readings.append(r)
            self.report.readings_generated += 1
            if self.gt.is_event_reading(n, round_no):
                self.report.event_readings_generated += 1
        return readings

    def _baseline_round(self, round_no, readings):
        for r in readings:
            route = self.topo.routes.get(r.source)
            if route is None:
                self.report.readings_lost_in_transit += 1
                continue
            delivered, hops = self._send(route, [r], round_no)
            self._deliver_to_sink(delivered, {}, hops, round_no)

    def _framework_round(self, round_no, readings):
        hops_by_key: Dict[Tuple[int, int], int] = {}

        # sensors -> aggregators
        arrived: Dict[int, List[SensorReading]] = {a: [] for a in self.topo.aggregators}
        for r in readings:
            route = self.topo.routes.get(r.source)
            if route is None:
                self.report.readings_lost_in_transit += 1
                continue
            delivered, hops = self._send(route, [r], round_no)
            for d in delivered:
                hops_by_key[d.key()] = hops
                arrived[route[-1]].append(d)

        # dedup per aggregator, then aggregators -> sub-sink
        round_context: List[SensorReading] = []
        at_sub_sink: List[SensorReading] = []
        for a in self.topo.aggregators:
            snap = aggregation.collect_round(arrived[a], round_no)
            if self.sc.dedup_enabled:
                snap = aggregation.deduplicate(snap, self.sc.dedup_eps,
                                               self.dedup_state[a])
                self.dedup_state[a].update(aggregation.committed_values(snap))
            self.report.readings_after_dedup += len(snap.readings)
            round_context.extend(snap.readings)
            if not snap.readings or a not in self.topo.alive:
                continue
            route = self.topo.routes.get(a)
            if route is None:
                self.report.readings_lost_in_transit += len(snap.readings)
                continue
            delivered, hops = self._send(route, list(snap.readings), round_no)
            for d in delivered:
                hops_by_key[d.key()] = hops_by_key.get(d.key(), 0) + hops
            at_sub_sink.extend(delivered)

        # staircase filter at the sub-sink
        snap = aggregation.RoundSnapshot(round=round_no,
                                         readings=tuple(canonical_order(at_sub_sink)))
        kept, trace = pipeline.run_pipeline(snap, round_context, self.topo,
                                            self.history, self.cfg, self.model)
        metrics.record(self.report, trace)
        if self.training is not None:
            affected = self.gt.affected(round_no)
            for r in trace.sentiment_input:
                label = (pipeline.LABEL_FORWARD if r.source in affected
                         else pipeline.LABEL_DISCARD)
                self.training.append((pipeline.features(r, self.cfg), label))

        # survivors -> sink
        sub = self.topo.sub_sink
        if kept and sub in self.topo.alive:
            route = self.topo.routes.get(sub)
            if route is None:
                self.report.readings_lost_in_transit += len(kept)
            else:
                delivered, hops = self._send(route, kept, round_no)
                self._deliver_to_sink(delivered, hops_by_key, hops, round_no)
        elif kept:
            self.report.readings_lost_in_transit += len(kept)

    def execute(self) -> RunResult:
        # Reachability depends only on the alive set, which only shrinks.
        alive_count, reachable = None, False
        for round_no in range(self.sc.rounds):
            if self._routes_dirty:
                topo_mod.recompute_routes(self.topo, self.sc.mode)
                self._routes_dirty = False
            if len(self.topo.alive) != alive_count:
                alive_count = len(self.topo.alive)
                reachable = topo_mod.sink_reachable(self.topo)
            if not reachable:
                self.report.network_death_round = round_no
                break
            readings = self._sense_round(round_no)
            if self.sc.mode == "baseline":
                self._baseline_round(round_no, readings)
            else:
                self._framework_round(round_no, readings)
            self.report.rounds_completed = round_no + 1
            if len(self.ledger.death_rounds) > self._deaths_seen:
                self._deaths_seen = len(self.ledger.death_rounds)
                self._routes_dirty = True

        rep = self.report
        rep.first_node_death_round = self.ledger.first_death_round
        rep.per_node_energy_remaining_j = {
            n: self.ledger.remaining(n) for n in self.ledger.finite_nodes()}
        if self.sc.mode == "baseline":
            # no in-network filtering: pass-through counts keep the
            # telescoping invariant comparable across modes
            for f in ("readings_after_dedup", "readings_after_priority",
                      "readings_after_opinion", "readings_after_review",
                      "readings_after_sentiment"):
                setattr(rep, f, rep.readings_generated)
        metrics.finalize(rep)
        return RunResult(report=rep, delivered=self.delivered_all,
                         training_examples=self.training)


def run(scenario: ScenarioConfig, model: Optional[ClassifierModel] = None,
        keep_delivered: bool = False, collect_training: bool = False) -> RunResult:
    """Execute one full simulation; deterministic in (scenario, seed)."""
    return _Run(scenario, model, keep_delivered, collect_training).execute()


def collect_training_examples(scenario: ScenarioConfig):
    """Labeled warm-up run (offset seed) for classifier training."""
    warmup = dataclasses.replace(scenario, seed=scenario.seed + TRAIN_SEED_OFFSET,
                                 mode="framework")
    result = run(warmup, collect_training=True)
    return result.training_examples
