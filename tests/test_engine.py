import dataclasses
import hashlib
import math
import random

import pytest

from iirsim import dissemination, engine, metrics, pipeline, topology
from iirsim.config import ScenarioConfig, parse_scenario
from iirsim.energy import EnergyLedger
from iirsim.errors import InvalidScenario
from iirsim.metrics import serialize
from iirsim.topology import build_topology


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
        topo = build_topology(sc, sc.seed)
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

    def test_non_finite_value_rejected(self):
        # each input is finite, their sum is not
        sc = line_fixture(field_base=1e308, event_rate=1.0,
                          event_magnitude=1e308, event_radius=1000.0)
        gt = self.make_gt(sc)
        gt.advance(0, random.Random(1))
        with pytest.raises(InvalidScenario, match="not finite"):
            engine.sense(0, 0, sc, gt, random.Random(0))


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
        n_sensors = sum(1 for _ in build_topology(sc, sc.seed).sensors())
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
                y = (ev.tx_energy + ev.rx_energy) - comp
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

    @pytest.mark.parametrize("mode", ["baseline", "framework"])
    def test_one_ledger_call_per_packet(self, monkeypatch, mode):
        calls = {"send_along": 0, "packets": 0, "legs": 0, "carry": 0,
                 "debit": 0}
        send_along = dissemination.send_along

        def counted_send(route, readings, *args, batch_cap, **kwargs):
            calls["send_along"] += 1
            if len(route) > 1:
                calls["packets"] += math.ceil(len(readings) / batch_cap)
            return send_along(route, readings, *args, batch_cap=batch_cap,
                              **kwargs)
        monkeypatch.setattr(dissemination, "send_along", counted_send)
        for owner, name in ((topology.Topology, "legs"),
                            (EnergyLedger, "carry"), (EnergyLedger, "debit")):
            def counted(*args, _name=name, _fn=getattr(owner, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(owner, name, counted)
        engine.run(draining(mode))
        # hop geometry once per call, billing once per packet, never per hop
        assert calls["packets"] > 0
        assert calls["legs"] == calls["send_along"]
        assert calls["carry"] == calls["packets"]
        assert calls["debit"] == 0


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
    "framework": "3b48f2e5c85615264478d013e6bf0326b8cc5a6ad19ab5ac4f6ceae42e18092d",
}


@pytest.mark.parametrize("mode", sorted(DRAINING_DIGESTS))
def test_draining_report_digest(mode):
    text = serialize(engine.run(draining(mode)).report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == DRAINING_DIGESTS[mode]


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
