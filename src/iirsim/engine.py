"""Round-synchronous simulation loop for both network modes.

A framework round senses at every alive sensor, then moves the readings over
three legs: each reading alone from its sensor to its nearest aggregator,
each aggregator's deduplicated readings to the sub-sink, and the survivors
of the staircase filter at the sub-sink on to the sink. Baseline mode is
leg 1 aimed at the sink, with no filter. A delivered reading's hop count is
the hops over every leg it rode.

Routes are fixed within a round. Routes and the sink's reachability are
recomputed in the first round after the alive set shrinks; a round that
starts with no alive sensor able to reach the sink is the network death
round. All randomness comes from purpose-salted streams derived from the
scenario seed, consumed in node-id order, so a (scenario, seed) pair always
reproduces the same run bit for bit.
"""
from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import aggregation, dissemination, metrics, pipeline, topology as topo_mod
from .config import ScenarioConfig
from .core import SensorReading, mix_seed
from .energy import EnergyLedger
from .errors import InvalidScenario
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
    """Injected field events; visible to labeling and metrics only.

    `magnitude` holds the current round only: each sensor inside at least
    one active event, mapped to the summed magnitude of those events.
    """

    def __init__(self, scenario: ScenarioConfig, topo: topo_mod.Topology):
        self._sc = scenario
        self._extent = topo.extent()
        self._sensors = [(n.id, n.pos) for n in topo.nodes
                         if n.role is topo_mod.NodeRole.SENSOR]
        self._active: List[_Event] = []
        self.magnitude: Dict[int, float] = {}

    def advance(self, round_no: int, rng: random.Random) -> None:
        """Move the events on to round `round_no` and rebuild `magnitude`."""
        self._active = [e for e in self._active if e.remaining > 0]
        # one draw per round regardless of rate, to keep streams aligned
        spawn = rng.random() < self._sc.event_rate
        if spawn:
            x = rng.uniform(0.0, max(self._extent[0], 1.0))
            y = rng.uniform(0.0, max(self._extent[1], 1.0))
            self._active.append(_Event(x, y, self._sc.event_magnitude,
                                       self._sc.event_duration))
        radius = self._sc.event_radius
        self.magnitude = {}
        for node, (px, py) in self._sensors:
            inside = [e.magnitude for e in self._active
                      if math.hypot(px - e.x, py - e.y) <= radius]
            if inside:
                self.magnitude[node] = sum(inside)
        for e in self._active:
            e.remaining -= 1


def sense(node: int, round_no: int, scenario: ScenarioConfig,
          ground_truth: GroundTruth, rng: random.Random) -> SensorReading:
    """One sample: base field + sinusoidal drift + noise + event bump."""
    drift = scenario.drift_amplitude * math.sin(
        2.0 * math.pi * round_no / scenario.drift_period)
    noise = rng.gauss(0.0, scenario.noise_sigma)
    value = (scenario.field_base + drift + noise
             + ground_truth.magnitude.get(node, 0.0))
    if not math.isfinite(value):
        raise InvalidScenario(f"sensed value {value} at node {node} in round "
                              f"{round_no} is not finite")
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
        self.sensors = sorted(self.topo.sensors())
        self.radio = scenario.radio()
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

    def _send(self, owner, readings, round_no):
        """Send `readings` along `owner`'s route; returns those that arrive.

        Readings are lost when `owner` has no route or when a node on the
        route dies before they arrive.
        """
        route = self.topo.routes.get(owner)
        if route is None:
            self.report.readings_lost_in_transit += len(readings)
            return []
        _, delivered, lost = dissemination.send_along(
            route, readings, self.topo, self.radio, self.ledger, self.report,
            batch_cap=self.sc.batch_cap, round_no=round_no)
        self.report.readings_lost_in_transit += lost
        return delivered

    def _deliver(self, readings):
        """Count readings that reached the sink, with the hops they rode.

        Routes are fixed within a round, so a reading rode its sensor's
        route, then, in framework mode, its aggregator's and the sub-sink's.
        """
        routes, rep, sub = self.topo.routes, self.report, self.topo.sub_sink
        for r in readings:
            route = routes[r.source]
            hops = len(route) - 1
            if self.sc.mode == "framework":
                hops += len(routes[route[-1]]) - 1 + len(routes[sub]) - 1
            rep.readings_delivered_to_sink += 1
            rep.delivered_hops_total += hops
            if r.source in self.gt.magnitude:
                rep.event_readings_delivered += 1
            if self.delivered_all is not None:
                self.delivered_all.append(r)

    def _round(self, round_no):
        rep = self.report
        self.gt.advance(round_no, self.event_rng)
        events = self.gt.magnitude
        readings = [sense(n, round_no, self.sc, self.gt, self.sense_rng)
                    for n in self.sensors if n in self.topo.alive]
        rep.readings_generated += len(readings)
        rep.event_readings_generated += sum(r.source in events for r in readings)

        # leg 1: each reading alone, from its sensor to the end of its route
        baseline = self.sc.mode == "baseline"
        routes = self.topo.routes
        ends = (self.topo.sink,) if baseline else self.topo.aggregators
        arrived: Dict[int, List[SensorReading]] = {a: [] for a in ends}
        for r in readings:
            for d in self._send(r.source, [r], round_no):
                arrived[routes[r.source][-1]].append(d)
        if baseline:
            self._deliver(arrived[self.topo.sink])
            return

        # dedup per aggregator, then leg 2: aggregators -> sub-sink
        round_context: List[SensorReading] = []
        at_sub_sink: List[SensorReading] = []
        for a in self.topo.aggregators:
            snap = aggregation.collect_round(arrived[a], round_no)
            if self.sc.dedup_enabled:
                snap = aggregation.deduplicate(snap, self.sc.dedup_eps,
                                               self.dedup_state[a])
                self.dedup_state[a].update(aggregation.committed_values(snap))
            rep.readings_after_dedup += len(snap.readings)
            round_context.extend(snap.readings)
            # an aggregator that died receiving its readings forwards none
            # and counts none lost
            if snap.readings and a in self.topo.alive:
                at_sub_sink.extend(self._send(a, snap.readings, round_no))

        # staircase filter at the sub-sink
        snap = aggregation.collect_round(at_sub_sink, round_no)
        kept, trace = pipeline.run_pipeline(snap, round_context, self.topo,
                                            self.history, self.sc, self.model)
        metrics.record(rep, trace)
        if self.training is not None:
            for r in trace.sentiment_input:
                label = (pipeline.LABEL_FORWARD if r.source in events
                         else pipeline.LABEL_DISCARD)
                self.training.append((pipeline.features(r, self.sc), label))

        # leg 3: survivors -> sink
        if kept:
            self._deliver(self._send(self.topo.sub_sink, kept, round_no))

    def execute(self) -> RunResult:
        # Routes and reachability depend only on the alive set, which only
        # shrinks: both are refreshed in the first round after it does.
        routed = len(self.topo.alive)
        reachable = topo_mod.sink_reachable(self.topo)
        for round_no in range(self.sc.rounds):
            if len(self.topo.alive) != routed:
                topo_mod.recompute_routes(self.topo, self.sc.mode)
                routed = len(self.topo.alive)
                reachable = topo_mod.sink_reachable(self.topo)
            if not reachable:
                self.report.network_death_round = round_no
                break
            self._round(round_no)
            self.report.rounds_completed = round_no + 1

        rep = self.report
        rep.first_node_death_round = self.ledger.first_death_round
        rep.per_node_energy_remaining_j = {
            n: self.ledger.remaining(n) for n in self.ledger.finite_nodes()}
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
