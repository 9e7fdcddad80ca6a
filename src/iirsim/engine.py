"""Round-synchronous simulation loop for both network modes.

A framework round senses at every alive sensor, then moves the readings over
three legs: each reading alone from its sensor to its nearest aggregator,
every aggregator's deduplicated readings to the sub-sink, and the survivors
of the staircase filter, which sees only the readings that reached the
sub-sink, on to the sink. Baseline mode is leg 1 aimed at the sink, with no
filter. A delivered reading's hop count is the hops over every leg it rode.

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
from .core import SensorReading, make_reading, mix_seed
from .energy import EnergyLedger
from .errors import InvalidScenario
from .metrics import MetricsReport
from .pipeline import ClassifierModel

_SENSE_SALT = 0x5E15E
_EVENT_SALT = 0xE4E47
TRAIN_SEED_OFFSET = 7919  # warm-up labeling run uses seed + this


class GroundTruth:
    """Injected field events; visible to labeling and metrics only.

    Each active event is an `(end_round, covered)` pair, active up to but not
    including `end_round`; `covered` lists, in node-id order, the sensors
    within `event_radius` of the event's centre, found once when it spawns.
    `magnitude` holds the current round only: each sensor inside at least
    one active event, mapped to `event_magnitude` folded once per such event
    from 0 (`core.fold_sum`'s rule).
    `base` is the current round's field without noise or events: the base
    field plus the round's sinusoidal drift.
    """

    def __init__(self, scenario: ScenarioConfig, topo: topo_mod.Topology):
        self._sc = scenario
        self._extent = topo.extent()
        self._sensors = [n for n in topo.nodes
                         if n.role is topo_mod.NodeRole.SENSOR]
        self._active: List[Tuple[int, List[int]]] = []
        self.magnitude: Dict[int, float] = {}
        self.base = math.nan  # set by advance

    def advance(self, round_no: int, rng: random.Random) -> None:
        """Move the field on to round `round_no`: its `base` and, from the
        events, its `magnitude`."""
        self.base = self._sc.field_base + self._sc.drift_amplitude * math.sin(
            2.0 * math.pi * round_no / self._sc.drift_period)
        self._active = [e for e in self._active if e[0] > round_no]
        # one draw per round regardless of rate, to keep streams aligned
        spawn = rng.random() < self._sc.event_rate
        if spawn:
            x = rng.uniform(0.0, max(self._extent[0], 1.0))
            y = rng.uniform(0.0, max(self._extent[1], 1.0))
            radius = self._sc.event_radius
            self._active.append((round_no + self._sc.event_duration, [
                node for node, _, (px, py) in self._sensors
                if math.hypot(px - x, py - y) <= radius]))
        mag = self._sc.event_magnitude
        self.magnitude = magnitude = {}
        for _, covered in self._active:
            for node in covered:
                magnitude[node] = magnitude.get(node, 0) + mag


def sense(node: int, round_no: int, scenario: ScenarioConfig,
          ground_truth: GroundTruth, rng: random.Random) -> SensorReading:
    """One sample: base field + sinusoidal drift + noise + event bump.

    `ground_truth` must have been advanced to `round_no`: the base field and
    drift come from its `base`, the bump from its `magnitude`.
    """
    value = ((ground_truth.base + rng.gauss(0.0, scenario.noise_sigma))
             + ground_truth.magnitude.get(node, 0.0))
    if not math.isfinite(value):
        raise InvalidScenario(f"sensed value {value} at node {node} in round "
                              f"{round_no} is not finite")
    return make_reading((node, round_no, value, 0.0, 0.0, 0.0))


@dataclass
class RunResult:
    report: MetricsReport
    delivered: Optional[List[SensorReading]] = None
    training_examples: Optional[List[Tuple[Tuple[float, ...], str]]] = None


class _Run:
    def __init__(self, scenario: ScenarioConfig,
                 model: Optional[ClassifierModel],
                 keep_delivered: bool, collect_training: bool):
        self.sc = scenario
        self.model = model
        self.topo = topo_mod.build_topology(scenario)
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

    def _send(self, sends, round_no):
        """Send each `(owner, readings)` along `owner`'s route, in one leg;
        returns the readings that arrive.

        Readings are lost when their owner is dead (a collector may die
        receiving them) or has no route, or when a node on the route dies
        before they arrive. Every leg loses readings by this one rule.
        """
        routes, flows = self.topo.routes, []
        for owner, readings in sends:
            if not readings:
                continue
            route = routes.get(owner)
            if route is None:
                self.report.readings_lost_in_transit += len(readings)
            else:
                flows.append((route, readings))
        _, delivered, lost = dissemination.send_along(
            flows, self.topo, self.radio, self.ledger, self.report,
            batch_cap=self.sc.batch_cap, round_no=round_no)
        self.report.readings_lost_in_transit += lost
        return delivered

    def _deliver(self, readings):
        """Count readings that reached the sink, with the hops they rode.

        Routes are fixed within a round, so a reading rode its sensor's
        route, then, in framework mode, its aggregator's and the sub-sink's.
        """
        routes, rep, topo = self.topo.routes, self.report, self.topo
        # hops after a sensor's route (legs 2 and 3), by the route's end; the
        # sub-sink may have no route when nothing was delivered
        after = {topo.sink: 0}
        if self.sc.mode == "framework" and readings:
            tail = len(routes[topo.sub_sink]) - 1
            after = {a: len(routes[a]) - 1 + tail
                     for a in topo.aggregators if a in routes}
        hops = 0
        for r in readings:
            route = routes[r.source]
            hops += len(route) - 1 + after[route[-1]]
        rep.readings_delivered_to_sink += len(readings)
        rep.delivered_hops_total += hops
        events = self.gt.magnitude
        if events:
            rep.event_readings_delivered += sum(r.source in events
                                                for r in readings)
        if self.delivered_all is not None:
            self.delivered_all.extend(readings)

    def _round(self, round_no):
        rep = self.report
        self.gt.advance(round_no, self.event_rng)
        events = self.gt.magnitude
        sc, gt, rng, alive = self.sc, self.gt, self.sense_rng, self.topo.alive
        readings = [sense(n, round_no, sc, gt, rng)
                    for n in self.sensors if n in alive]
        rep.readings_generated += len(readings)
        if events:
            rep.event_readings_generated += sum(r.source in events
                                                for r in readings)

        # leg 1: each reading alone, from its sensor to the end of its route
        landed = self._send(((r.source, (r,)) for r in readings), round_no)
        if self.sc.mode == "baseline":
            self._deliver(landed)
            return
        routes = self.topo.routes
        arrived = {a: [] for a in self.topo.aggregators}
        for d in landed:
            arrived[routes[d.source][-1]].append(d)

        # dedup per aggregator, then leg 2: aggregators -> sub-sink
        outgoing = []
        for a in self.topo.aggregators:
            snap = aggregation.collect_round(arrived[a], round_no)
            if self.sc.dedup_enabled:
                snap = aggregation.deduplicate(snap, self.sc.dedup_eps,
                                               self.dedup_state[a])
                self.dedup_state[a].update(aggregation.committed_values(snap))
            rep.readings_after_dedup += len(snap.readings)
            outgoing.append((a, snap.readings))

        # staircase filter at the sub-sink, over what reached it
        snap = aggregation.collect_round(self._send(outgoing, round_no),
                                         round_no)
        kept, trace = pipeline.run_pipeline(snap, snap.readings, self.topo,
                                            self.history, self.sc, self.model)
        metrics.record(rep, trace)
        if self.training is not None:
            for r in trace.sentiment_input:
                label = (pipeline.LABEL_FORWARD if r.source in events
                         else pipeline.LABEL_DISCARD)
                self.training.append((pipeline.features(r, self.sc), label))

        # leg 3: survivors -> sink
        if kept:
            self._deliver(self._send([(self.topo.sub_sink, kept)], round_no))

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
