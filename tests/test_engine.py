import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from iirsim import (aggregation, dissemination, engine, metrics, pipeline,
                    topology)
from iirsim.config import ScenarioConfig, parse_scenario
from iirsim.core import NodeRole, SensorReading, mix_seed
from iirsim.energy import EnergyLedger
from iirsim.errors import InvalidScenario, SimError
from iirsim.metrics import serialize
from iirsim.topology import build_topology
from random_scenarios import OPEN_THRESHOLDS, random_scenario


def line_fixture(**kw):
    """sensor(0) -> aggregator(1) -> sub-sink(2) -> sink(3), 10 m apart."""
    base = dict(node_count=4, placement="line", grid_spacing=10.0,
                comm_radius=10.0, sink_id=3, sub_sink=2, aggregator_ids=(1,),
                rounds=3, noise_sigma=0.0, drift_amplitude=0.0, event_rate=0.0,
                dedup_enabled=False, theta_p=0.0, delta_o=0.0, quorum_q=0.0,
                rescue_score=0.0, range_lo=-1e9, range_hi=1e9, band_lo=20.0,
                band_hi=30.0, mode="framework")
    base.update(kw)
    return ScenarioConfig(**base)


def small_grid(**kw):
    base = dict(node_count=16, comm_radius=15.0, rounds=20, sub_sink="auto",
                aggregator_every=5, seed=3)
    base.update(kw)
    return ScenarioConfig(**base)


class TestSense:
    def make_gt(self, sc):
        topo = build_topology(sc)
        return engine.GroundTruth(sc, topo)

    def test_constant_field(self):
        sc = line_fixture(noise_sigma=0.0, drift_amplitude=0.0)
        gt = self.make_gt(sc)
        rng = random.Random(0)
        for rnd in range(3):
            gt.advance(rnd, random.Random(1))
            r = engine.sense(0, rnd, sc, gt, rng)
            assert r.value == 25.0

    def test_sinusoidal_drift(self):
        sc = line_fixture(drift_amplitude=5.0, drift_period=4.0)
        gt = self.make_gt(sc)
        gt.advance(0, random.Random(1))
        gt.advance(1, random.Random(1))
        r = engine.sense(0, 1, sc, gt, random.Random(0))
        assert r.value == pytest.approx(30.0)  # base 25 + 5*sin(pi/2)

    def test_event_magnitude_added(self):
        sc = line_fixture(event_rate=1.0, event_magnitude=10.0,
                          event_radius=1000.0)
        gt = self.make_gt(sc)
        gt.advance(0, random.Random(1))
        assert 0 in gt.magnitude  # node 0 gives an event reading in round 0
        r = engine.sense(0, 0, sc, gt, random.Random(0))
        assert r.value == pytest.approx(35.0)

    def test_equals_the_per_reading_expression(self):
        # advance computes the round's base once; every reading must still
        # be base field + drift + noise + bump, summed left to right, with
        # drift and noise drawn as a per-reading computation would
        sc = small_grid(drift_amplitude=3.0, drift_period=7.0,
                        noise_sigma=0.8, event_rate=0.3, event_duration=2,
                        event_magnitude=4.0, event_radius=12.0)
        topo = build_topology(sc)
        gt = engine.GroundTruth(sc, topo)
        rng, twin, events = random.Random(5), random.Random(5), random.Random(6)
        quiet = bumped = 0
        for rnd in range(20):
            gt.advance(rnd, events)
            if not gt._active:
                assert gt.magnitude == {}
                quiet += 1
            for node in topo.sensors():
                drift = sc.drift_amplitude * math.sin(
                    2.0 * math.pi * rnd / sc.drift_period)
                noise = twin.gauss(0.0, sc.noise_sigma)
                bump = gt.magnitude.get(node, 0.0)
                want = sc.field_base + drift + noise + bump
                got = engine.sense(node, rnd, sc, gt, rng)
                assert got == SensorReading(node, rnd, want)
                bumped += bump != 0.0
        assert quiet and bumped

    def test_non_finite_value_rejected(self):
        # each input is finite, their sum is not
        sc = line_fixture(field_base=1e308, event_rate=1.0,
                          event_magnitude=1e308, event_radius=1000.0)
        gt = self.make_gt(sc)
        gt.advance(0, random.Random(1))
        with pytest.raises(InvalidScenario, match="not finite"):
            engine.sense(0, 0, sc, gt, random.Random(0))


def left_fold(values):
    """The plain float total every float sum in the program uses: left to
    right from int 0, one rounding per add (CPython 3.11's `sum`)."""
    return functools.reduce(operator.add, values, 0)


class ScannedEvents:
    """The round's event bumps by a scan of every sensor against every
    active event, each bump the left fold of those events' magnitudes in
    spawn order: the reference for `GroundTruth.advance`, which finds each
    event's sensors once, when it spawns."""

    def __init__(self, scenario, topo):
        self.sc, self.extent = scenario, topo.extent()
        self.sensors = [(n.id, n.pos) for n in topo.nodes
                        if n.role is NodeRole.SENSOR]
        self.active = []  # (x, y, end_round)
        self.most_overlapping = 0  # the most events covering one sensor
        self.rounded = False  # whether a bump differs from count * magnitude

    def advance(self, round_no, rng):
        sc = self.sc
        self.active = [e for e in self.active if e[2] > round_no]
        if rng.random() < sc.event_rate:
            x = rng.uniform(0.0, max(self.extent[0], 1.0))
            y = rng.uniform(0.0, max(self.extent[1], 1.0))
            self.active.append((x, y, round_no + sc.event_duration))
        magnitude = {}
        for node, (px, py) in self.sensors:
            inside = [sc.event_magnitude for x, y, _ in self.active
                      if math.hypot(px - x, py - y) <= sc.event_radius]
            if inside:
                magnitude[node] = left_fold(inside)
                self.most_overlapping = max(self.most_overlapping,
                                            len(inside))
                self.rounded |= magnitude[node] != len(inside) * inside[0]
        return magnitude


@pytest.mark.parametrize("magnitude", [0.7, 0.1, 1.3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_event_footprints_give_the_scanned_bumps(monkeypatch, magnitude,
                                                 seed):
    # sensors die from round 25, and up to a dozen events of a magnitude
    # with no exact binary form overlap, so the fold's rounding shows
    sc = small_grid(rounds=60, initial_energy_j=2e-3, mode="baseline",
                    seed=seed, event_rate=0.9, event_duration=12,
                    event_radius=15.0, event_magnitude=magnitude)
    scans, rounds = {}, []
    advance = engine.GroundTruth.advance

    def checked(gt, round_no, rng):
        scan = scans.get(gt)
        if scan is None:
            scan = scans[gt] = ScannedEvents(sc, build_topology(sc))
        twin = random.Random()
        twin.setstate(rng.getstate())
        advance(gt, round_no, rng)
        want = scan.advance(round_no, twin)
        assert gt.magnitude == want, round_no
        assert rng.getstate() == twin.getstate()
        rounds.append(round_no)
    monkeypatch.setattr(engine.GroundTruth, "advance", checked)
    r = engine.run(sc).report
    assert rounds == list(range(r.rounds_completed))
    dead = [n for n in build_topology(sc).sensors()
            if r.per_node_energy_remaining_j[n] == 0.0]
    assert dead and r.first_node_death_round < r.rounds_completed - 1
    (scan,) = scans.values()
    assert scan.most_overlapping >= 6 and scan.rounded


def compensated_sum(values, start=0):
    """CPython 3.12's builtin `sum`: exact while the items are ints, then
    Neumaier-compensated from the first float on."""
    total, comp, floats = start, 0.0, False
    for v in values:
        if not floats:
            if not isinstance(v, float):
                total += v
                continue
            floats, total = True, float(total)
        v = float(v)
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    if floats and comp and math.isfinite(comp):
        total += comp
    return total


def test_no_output_depends_on_the_builtin_sum(monkeypatch):
    # A uniform layout with every threshold open, where about ten events of
    # magnitude 0.7 overlap: a compensated `sum` of the bumps, the
    # perceptron's dot products or the centroid would change some bits.
    sc = ScenarioConfig(node_count=30, placement="uniform", comm_radius=20.0,
                        rounds=40, event_rate=0.9, event_duration=12,
                        event_magnitude=0.7, event_radius=30.0,
                        **OPEN_THRESHOLDS)

    def outputs():
        examples = engine.collect_training_examples(sc)
        yield examples
        model = pipeline.train_classifier(examples)
        yield model.weights
        yield serialize(engine.run(sc, model=model).report, "json")
    want = list(outputs())
    for module in (engine, pipeline, topology):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    # examples first: the perceptron is slow under a Python-level `sum`
    for name, got, expected in zip(("examples", "weights", "report"),
                                   outputs(), want):
        assert got == expected, name
    # Exact ties, where the last bits decide: each result below is the left
    # fold's, and a compensated total gives the other one.
    w, x = (1.0, 1e-16, -1.0, 0.0, 0.0), (1.0, 1.0, 1.0, 0.0, 0.0)
    assert left_fold(map(operator.mul, w, x)) == 0.0
    assert compensated_sum(map(operator.mul, w, x)) == 1e-16
    assert not pipeline.ClassifierModel(w).decide(x)
    forward = pipeline.LABEL_FORWARD
    model = pipeline.train_classifier([((1.0, 1e-16, -1.0, 0, 0), forward),
                                       ((1.0, 1.0, 1.0, 0, 0), forward)])
    assert model.weights == (2.0, 1.0, 0.0, 0.0, 0.0)
    # centroid x: 0.3 / 5 by the fold, nearest node 3; 1.3 / 5 compensated,
    # nearest node 4
    line = ScenarioConfig(node_count=5, placement="line", sink_id=1,
                          sub_sink="auto", aggregator_every=0,
                          mode="baseline")
    xs = (1e16, 1.0, -1e16, 0.0, 0.3)
    assert (left_fold(xs), compensated_sum(xs)) == (0.3, 1.3)
    _, _, sub_sink, _ = topology._assign_roles(line, [(x, 0.0) for x in xs])
    assert sub_sink == 3


class TestRun:
    def test_zero_rounds_empty_report(self):
        r = engine.run(line_fixture(rounds=0)).report
        assert r.rounds_completed == 0
        assert r.readings_generated == 0
        assert r.total_bits_transmitted == 0
        assert r.total_energy_consumed_j == 0.0
        assert r.selectivity is None

    def test_baseline_single_sensor_single_hop(self):
        sc = ScenarioConfig(node_count=2, placement="line", grid_spacing=5.0,
                            comm_radius=10.0, sink_id=1, sub_sink=None,
                            aggregator_every=0, mode="baseline", rounds=1,
                            event_rate=0.0, noise_sigma=0.0)
        r = engine.run(sc).report
        assert r.total_bits_transmitted == 128
        assert r.readings_delivered_to_sink == 1

    def test_line_fixture_hand_enumeration(self):
        # 3 rounds x 3 hops x 1 packet of one reading
        r = engine.run(line_fixture()).report
        assert r.total_bits_transmitted == 9 * 128 == 1152
        assert r.readings_delivered_to_sink == 3
        assert r.mean_hop_count == 3.0

    def test_determinism_byte_identical(self):
        sc = small_grid()
        a = serialize(engine.run(sc).report, "json")
        b = serialize(engine.run(sc).report, "json")
        assert a == b

    def test_seed_changes_report(self):
        a = engine.run(small_grid(seed=1)).report
        b = engine.run(small_grid(seed=2)).report
        assert serialize(a, "json") != serialize(b, "json")

    def test_causality_rounds_completed(self):
        r = engine.run(small_grid(rounds=7)).report
        assert r.rounds_completed == 7

    def test_telescoping_counts(self):
        r = engine.run(small_grid(rounds=30)).report
        chain = [r.readings_generated, r.readings_after_dedup,
                 r.readings_after_priority, r.readings_after_opinion,
                 r.readings_after_review, r.readings_after_sentiment]
        assert all(a >= b for a, b in zip(chain, chain[1:]))
        assert r.readings_delivered_to_sink <= r.readings_after_sentiment

    def test_energy_conservation(self):
        sc = small_grid(rounds=40)
        result = engine.run(sc)
        r = result.report
        drained = math.fsum(sc.initial_energy_j - e
                            for e in r.per_node_energy_remaining_j.values())
        assert r.total_energy_consumed_j == pytest.approx(drained, rel=1e-12,
                                                          abs=1e-15)
        assert all(e >= 0.0 for e in r.per_node_energy_remaining_j.values())

    def test_node_deaths_and_early_network_death(self):
        # starve the batteries so the network collapses mid-run
        sc = small_grid(rounds=300, initial_energy_j=2e-4, mode="baseline")
        r = engine.run(sc).report
        assert r.first_node_death_round is not None
        assert r.network_death_round is not None
        assert r.first_node_death_round <= r.network_death_round
        assert r.rounds_completed < 300
        drained = math.fsum(sc.initial_energy_j - e
                            for e in r.per_node_energy_remaining_j.values())
        assert r.total_energy_consumed_j == pytest.approx(drained, rel=1e-12)

    def test_death_by_rounding_is_recorded(self):
        # node 27 is emptied in round 8 by a charge below its balance that
        # the ledger's Kahan sum rounds up to the whole battery
        sc = ScenarioConfig(node_count=64, comm_radius=25, mode="framework",
                            initial_energy_j=0.002, rounds=20,
                            aggregator_every=3, seed=25, theta_p=0,
                            quorum_q=0, event_rate=0.5)
        r = engine.run(sc).report
        assert r.first_node_death_round == 8
        assert r.per_node_energy_remaining_j[27] == 0.0

    def test_dead_sensors_stop_generating(self):
        sc = small_grid(rounds=300, initial_energy_j=2e-4, mode="baseline")
        full = engine.run(sc).report
        # if dead nodes kept sensing, generated would be sensors * rounds
        n_sensors = sum(1 for _ in build_topology(sc).sensors())
        assert full.readings_generated < n_sensors * full.rounds_completed

    @pytest.mark.parametrize("mode", ["baseline", "framework"])
    def test_reachability_checked_once_per_recompute(self, monkeypatch, mode):
        calls = {"recompute_routes": 0, "sink_reachable": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(topology, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(topology, name, counted)
        sc = small_grid(rounds=300, initial_energy_j=2e-4, mode=mode)
        r = engine.run(sc).report
        # one recompute at set-up, then one after each round with a death
        assert calls["recompute_routes"] > 2
        assert calls["sink_reachable"] == calls["recompute_routes"]
        assert calls["sink_reachable"] < r.rounds_completed

    def test_mode_equivalence_on_line_fixture(self):
        fw = engine.run(line_fixture(noise_sigma=0.3), keep_delivered=True)
        bl = engine.run(line_fixture(noise_sigma=0.3, mode="baseline"),
                        keep_delivered=True)
        key = lambda rs: sorted((r.source, r.round, r.value) for r in rs)
        assert key(fw.delivered) == key(bl.delivered)


def reference(mode):
    """The reference scenario: an empty scenario file plus `rounds = 50`."""
    return dataclasses.replace(parse_scenario("rounds = 50\n"), mode=mode)


def draining(mode):
    """Batteries so small that nodes die, some in the middle of a route."""
    return small_grid(rounds=300, initial_energy_j=2e-4, mode=mode)


def even_collectors(mode):
    """sensor(0) -> aggregator(1) -> sub-sink(2) <- aggregator(3) <- sensor(4),
    sink(5) past node 4: each aggregator sends one reading every round."""
    return line_fixture(node_count=6, sink_id=5, aggregator_ids=(1, 3),
                        rounds=5, mode=mode)


class TestHopTotals:
    @pytest.mark.parametrize("mode", ["baseline", "framework"])
    @pytest.mark.parametrize("make", [reference, draining])
    def test_totals_equal_replayed_events(self, monkeypatch, make, mode):
        results = []
        send_along = dissemination.send_along

        def captured(*args, **kwargs):
            results.append(send_along(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(dissemination, "send_along", captured)
        r = engine.run(make(mode)).report
        # Kahan fold of every hop, in the order the hops were made
        bits, energy, comp = 0, 0.0, 0.0
        for events, _, _ in results:
            for ev in events:
                bits += ev.packet.bits
                y = ev.energy - comp
                t = energy + y
                comp = (t - energy) - y
                energy = t
        assert bits > 0
        assert r.total_bits_transmitted == bits
        assert r.total_energy_consumed_j == energy
        if make is draining:
            assert any(events and lost for events, _, lost in results)

    @pytest.mark.parametrize("mode", ["baseline", "framework"])
    def test_no_per_hop_record_or_remaining(self, monkeypatch, mode):
        calls = {"record": 0, "remaining": 0}
        record, remaining = metrics.record, EnergyLedger.remaining

        def counted_record(*args):
            calls["record"] += 1
            return record(*args)

        def counted_remaining(*args):
            calls["remaining"] += 1
            return remaining(*args)
        monkeypatch.setattr(metrics, "record", counted_record)
        monkeypatch.setattr(EnergyLedger, "remaining", counted_remaining)
        r = engine.run(reference(mode)).report
        # record folds one stage trace per framework round; hops are
        # folded by send_along
        assert calls["record"] == (r.rounds_completed
                                   if mode == "framework" else 0)
        # remaining() only fills per_node_energy_remaining_j at the end
        assert calls["remaining"] == len(r.per_node_energy_remaining_j)

    @staticmethod
    def count_ledger_calls(monkeypatch, scenario):
        """Run `scenario`, counting send_along calls billed per node or
        declined by carry_leg, the flows and packets of calls billed per
        packet, and the calls of legs, carry, debit, the leg plan's route
        walk and recompute_routes (set-up's included)."""
        calls = {"per_node": 0, "declined": 0, "flows": 0, "packets": 0,
                 "legs": 0, "carry": 0, "debit": 0, "_plan_leg": 0,
                 "recompute_routes": 0}
        billed = []
        with monkeypatch.context() as mp:
            send_along = dissemination.send_along
            carry_leg = EnergyLedger.carry_leg

            def counted_carry_leg(*args):
                got = carry_leg(*args)
                billed.append(got is not None)
                return got

            def counted_send(flows, *args, batch_cap, **kwargs):
                billed.clear()
                result = send_along(flows, *args, batch_cap=batch_cap,
                                    **kwargs)
                if billed == [True]:
                    calls["per_node"] += 1
                else:
                    calls["declined"] += billed == [False]
                    calls["flows"] += len(flows)
                    calls["packets"] += sum(math.ceil(len(rs) / batch_cap)
                                            for route, rs in flows
                                            if len(route) > 1)
                return result
            mp.setattr(dissemination, "send_along", counted_send)
            mp.setattr(EnergyLedger, "carry_leg", counted_carry_leg)
            for owner, name in ((topology.Topology, "legs"),
                                (EnergyLedger, "carry"),
                                (EnergyLedger, "debit"),
                                (EnergyLedger, "_plan_leg"),
                                (topology, "recompute_routes")):
                def counted(*args, _name=name, _fn=getattr(owner, name)):
                    calls[_name] += 1
                    return _fn(*args)
                mp.setattr(owner, name, counted)
            report = engine.run(scenario).report
        return calls, report

    @pytest.mark.parametrize("mode", ["baseline", "framework"])
    def test_one_ledger_call_per_packet(self, monkeypatch, mode):
        # leg 1 is billed per node in every round where it cannot empty a
        # battery, with its routes walked once per route version; leg 2 may
        # be too when every aggregator sends the same count, but no round
        # here bills it so; leg 3, and legs 1 and 2 otherwise, are billed
        # per packet, with hop geometry once per flow; never per charge
        for make in (reference, draining):
            calls, r = self.count_ledger_calls(monkeypatch, make(mode))
            assert calls["per_node"] > 0
            assert calls["carry"] == calls["packets"]
            assert calls["legs"] == calls["flows"]
            assert calls["debit"] == 0
            if make is reference:
                assert calls["per_node"] == r.rounds_completed
                assert calls["declined"] == 0
                assert (calls["carry"] == 0) == (mode == "baseline")
                assert calls["_plan_leg"] == 1
            else:
                assert calls["declined"] > 0
                # one route version from set-up, one per recompute after
                assert 1 <= calls["_plan_leg"] <= calls["recompute_routes"]
                assert calls["recompute_routes"] > 1


@pytest.mark.parametrize("mode", ["baseline", "framework"])
def test_an_untraced_run_builds_no_hop_event(monkeypatch, mode):
    # send_along's hops are built only when read, and a run reads none
    built = 0
    event = dissemination.TransmissionEvent

    def counted_event(*args):
        nonlocal built
        built += 1
        return event(*args)
    legs = []  # [hops, carry_leg billed it (None if not offered)] per call
    send_along, carry_leg = dissemination.send_along, EnergyLedger.carry_leg

    def captured(*args, **kwargs):
        legs.append([None, None])
        result = send_along(*args, **kwargs)
        legs[-1][0] = result[0]
        return result

    def counted_carry_leg(*args):
        got = carry_leg(*args)
        legs[-1][1] = got is not None
        return got
    monkeypatch.setattr(dissemination, "TransmissionEvent", counted_event)
    monkeypatch.setattr(dissemination, "send_along", captured)
    monkeypatch.setattr(EnergyLedger, "carry_leg", counted_carry_leg)
    for make in (reference, draining):
        engine.run(make(mode))
    assert built == 0
    # a leg billed per node and a declined one count the hops read from them
    per_node = next(h for h, billed in legs if billed and len(h))
    declined = next(h for h, billed in legs if billed is False and len(h))
    for hops in (per_node, declined):
        assert len(list(hops)) == len(hops)
    assert built == len(per_node) + len(declined)


def test_each_leg_keeps_its_plan(monkeypatch):
    # leg 1 and leg 2 are both billed per node on even_collectors, each
    # on one route version for the whole run
    plans = 0
    plan_leg = EnergyLedger._plan_leg

    def counted(*args):
        nonlocal plans
        plans += 1
        return plan_leg(*args)
    monkeypatch.setattr(EnergyLedger, "_plan_leg", counted)
    engine.run(even_collectors("framework"))
    assert plans == 2
    plans = 0
    rng = random.Random(2024)
    for _ in range(400):
        try:
            engine.run(random_scenario(rng))
        except SimError:
            pass
    assert plans <= 548


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", ["baseline", "framework"])
@pytest.mark.parametrize("make", [reference, draining, even_collectors])
def test_per_node_billing_gives_the_per_packet_report(monkeypatch, make, mode,
                                                      seed):
    sc = dataclasses.replace(make(mode), seed=seed)
    billed = []  # (origin of the first route, billed per node) per leg
    carry_leg = EnergyLedger.carry_leg

    def counted(self, routes, *args):
        got = carry_leg(self, routes, *args)
        billed.append((routes[0][0], got is not None))
        return got
    monkeypatch.setattr(EnergyLedger, "carry_leg", counted)
    per_node = serialize(engine.run(sc).report, "json")
    assert any(b for _, b in billed)
    if make is even_collectors and mode == "framework":
        aggregators = build_topology(sc).aggregators
        assert any(b for origin, b in billed if origin in aggregators)
    # the pass declines every leg, so every packet is carried one by one
    monkeypatch.setattr(EnergyLedger, "carry_leg", lambda *args: None)
    assert serialize(engine.run(sc).report, "json") == per_node


def test_every_reading_has_exactly_one_outcome(monkeypatch):
    # a reading is delivered, lost in transit, suppressed by dedup or
    # dropped by the staircase; nothing else becomes of it
    suppressed = staged = 0
    deduplicate, run_pipeline = aggregation.deduplicate, pipeline.run_pipeline

    def counted_dedup(snap, *args):
        nonlocal suppressed
        kept = deduplicate(snap, *args)
        suppressed += len(snap.readings) - len(kept.readings)
        return kept

    def counted_pipeline(snapshot, *args):
        nonlocal staged
        staged += len(snapshot.readings)
        return run_pipeline(snapshot, *args)
    monkeypatch.setattr(aggregation, "deduplicate", counted_dedup)
    monkeypatch.setattr(pipeline, "run_pipeline", counted_pipeline)
    rng = random.Random(2024)
    ran = died = 0
    for _ in range(300):
        sc = random_scenario(rng)
        suppressed = staged = 0
        try:
            r = engine.run(sc).report
        except SimError:
            continue
        ran += 1
        died += r.first_node_death_round is not None
        outcomes = r.readings_delivered_to_sink + r.readings_lost_in_transit
        if sc.mode == "framework":
            outcomes += suppressed + staged - r.readings_after_sentiment
        assert r.readings_generated == outcomes, sc
    assert ran >= 200 and 3 * died >= ran


def test_review_context_is_what_reached_the_sub_sink(monkeypatch):
    same = []
    run_pipeline = pipeline.run_pipeline

    def checked(snapshot, round_context, *args):
        same.append(Counter(round_context) == Counter(snapshot.readings))
        return run_pipeline(snapshot, round_context, *args)
    monkeypatch.setattr(pipeline, "run_pipeline", checked)
    r = engine.run(draining("framework")).report
    assert len(same) == r.rounds_completed and all(same)


class TestTrainingCollection:
    def test_examples_have_labels_from_ground_truth(self):
        sc = small_grid(rounds=60, event_rate=0.5, event_radius=50.0)
        examples = engine.run(sc, collect_training=True).training_examples
        assert examples
        labels = {label for _, label in examples}
        assert labels <= {"forward", "discard"}
        assert all(len(x) == 5 for x, _ in examples)

    def test_warmup_uses_offset_seed(self):
        sc = small_grid(rounds=10)
        direct = engine.run(dataclasses.replace(
            sc, seed=sc.seed + engine.TRAIN_SEED_OFFSET),
            collect_training=True).training_examples
        assert engine.collect_training_examples(sc) == direct


# sha256 of the JSON report of the reference scenario (an empty scenario
# file plus `rounds = 50`, seed 1). A change that alters a report on
# purpose re-pins these and lists the old and new digests in CHANGES.md.
REFERENCE_DIGESTS = {
    "baseline": "8f7b9162c076eaa387300bd295eedc7683f27916be5beeb4971e12d865ca635b",
    "framework": "a9280c5db780efabd9a737fa0cb43ab9fdeaa507950695f63837552fbc535eb1",
}


@pytest.mark.parametrize("mode", sorted(REFERENCE_DIGESTS))
def test_reference_report_digest(mode):
    text = serialize(engine.run(reference(mode)).report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_DIGESTS[mode]


# sha256 of the JSON report of `draining(mode)`: the pinned scenario with
# deaths, mid-route losses and route recomputes. Re-pinned like
# REFERENCE_DIGESTS.
DRAINING_DIGESTS = {
    "baseline": "e32235777d73bb4176c3c962ade23dfc9f0c64daccb425e28c029264584ac766",
    "framework": "dfa7742085c515f59de3a5fe029800fbd7b56db368f4a6b1b3c8ba0f8eb4038d",
}


@pytest.mark.parametrize("mode", sorted(DRAINING_DIGESTS))
def test_draining_report_digest(mode):
    text = serialize(engine.run(draining(mode)).report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == DRAINING_DIGESTS[mode]


# Runs in a fresh interpreter: the digests of `reference` and `draining`
# in both modes, as JSON keyed by "<scenario> <mode>".
_DIGESTS_CHILD = """
import hashlib, json
from iirsim import engine
from iirsim.metrics import serialize
from test_engine import draining, reference
print(json.dumps({
    f"{scenario.__name__} {mode}": hashlib.sha256(serialize(
        engine.run(scenario(mode)).report, "json").encode()).hexdigest()
    for scenario in (reference, draining)
    for mode in ("baseline", "framework")}))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "987654"])
def test_digests_do_not_depend_on_the_hash_seed(hash_seed):
    # str hashes, and with them the order of a set of strings or of
    # `NodeRole`s (a str enum), follow PYTHONHASHSEED; a report must not
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        (str(tests.parent / "src"), str(tests))))
    proc = subprocess.run([sys.executable, "-c", _DIGESTS_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        **{f"reference {m}": d for m, d in REFERENCE_DIGESTS.items()},
        **{f"draining {m}": d for m, d in DRAINING_DIGESTS.items()}}


def opened(**kw):
    """The reference framework scenario for 200 rounds with every filter
    threshold open, so every reading runs all four stages and rides all
    three legs."""
    return dataclasses.replace(reference("framework"), rounds=200,
                               **OPEN_THRESHOLDS, **kw)


# sha256 of the JSON report of `opened()`, and of `opened()` with batteries
# small enough that nodes die from round 58. Re-pinned like
# REFERENCE_DIGESTS.
OPEN_DIGESTS = {
    "open": "4359e8b571a1785c5f4939a3a0a4de248161cca7b06732ff4ba35f02fb4c3ccc",
    "open_draining":
        "523b848f1fc35e2f25742806177911e199db7648be058004503c80a4ba4fb3de",
}


@pytest.mark.parametrize("name", sorted(OPEN_DIGESTS))
def test_open_report_digest(name):
    sc = opened(**({"initial_energy_j": 0.05} if name == "open_draining"
                   else {}))
    report = engine.run(sc).report
    if name == "open_draining":
        assert report.first_node_death_round == 58
    text = serialize(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == OPEN_DIGESTS[name]


def trained():
    """The reference framework scenario with the priority gate open
    (`theta_p = 0`) and the rescue rule limited to `priority_score >= 2`,
    so that the classifier decides readings the rescue rule leaves to it.
    """
    return dataclasses.replace(reference("framework"), theta_p=0.0,
                               rescue_score=2.0)


# sha256 of `repr(collect_training_examples(trained()))` and of the JSON
# report of `trained()` run with the model trained on those examples. Scores
# reach the classifier only through `features`, so these pin the path from
# each stage's score to its feature. Re-pinned like REFERENCE_DIGESTS.
TRAINED_DIGESTS = {
    "examples": "b7811bbbec571cab2ded77b524be6f6e0bcb43b5e8a50b7cca5822cea35b2cef",
    "report": "0320b3705a79ce20c9fc775df77b5354f734c0cf95deb67cd1e628c863c17baa",
}


def test_trained_model_digests():
    sc = trained()
    examples = engine.collect_training_examples(sc)
    model = pipeline.train_classifier(examples)
    result = engine.run(sc, model=model, collect_training=True)
    # the model both forwards and discards readings the rescue rule leaves
    assert {model.decide(x) for x, _ in result.training_examples
            if x[0] < sc.rescue_score} == {True, False}
    text = serialize(result.report, "json")
    assert {"examples": hashlib.sha256(repr(examples).encode()).hexdigest(),
            "report": hashlib.sha256(text.encode()).hexdigest()} == \
        TRAINED_DIGESTS
