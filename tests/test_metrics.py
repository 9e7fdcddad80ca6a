import json

import pytest

from iirsim.core import NodeRole, SensorReading
from iirsim.dissemination import send_along
from iirsim.energy import EnergyLedger, RadioParams
from iirsim.metrics import (COLUMNS, MetricsReport, finalize, record,
                            serialize, to_csv, to_json)
from iirsim.pipeline import StageTrace
from iirsim.topology import Node, Topology


def one_hop_send(report, n_readings=1):
    """Send n_readings in one packet over one 10 m hop between two nodes
    with finite batteries, folding the hop into `report`."""
    nodes = [Node(0, NodeRole.SENSOR, (0.0, 0.0)),
             Node(1, NodeRole.SINK, (10.0, 0.0))]
    t = Topology(nodes=nodes, comm_radius=10.0, adjacency={0: [1], 1: [0]},
                 alive={0, 1}, sink=1, sub_sink=None, aggregators=())
    ledger = EnergyLedger({0: 1.0, 1: 1.0})
    return send_along([([0, 1], [SensorReading(source=0, round=0, value=1.0)
                                 for _ in range(n_readings)])],
                      t, RadioParams(), ledger, report, batch_cap=16,
                      round_no=0)


class TestRecord:
    def test_event_accumulates_bits_and_energy(self):
        r = MetricsReport(mode="baseline")
        one_hop_send(r)
        assert r.total_bits_transmitted == 128
        assert r.total_energy_consumed_j == pytest.approx(7.68e-6 + 6.4e-6,
                                                          rel=1e-12)

    def test_no_events_unchanged(self):
        assert MetricsReport(mode="baseline") == MetricsReport(mode="baseline")

    def test_replay_gives_identical_reports(self):
        a, b = MetricsReport(mode="x"), MetricsReport(mode="x")
        for i in range(20):
            one_hop_send(a, i % 3 + 1)
        for i in range(20):
            one_hop_send(b, i % 3 + 1)
        assert finalize(a) == finalize(b)

    def test_energy_fold_split_over_calls_equals_one_fold(self):
        # 1e-16 is below half an ulp of 1.0: only the carried Kahan
        # compensation keeps these hops in the total
        hops = [1.0] + [1e-16] * 50
        whole, split = MetricsReport(), MetricsReport()
        whole.add_energy(hops)
        for e in hops:
            split.add_energy([e])
        assert whole.total_energy_consumed_j > 1.0
        assert split.total_energy_consumed_j == whole.total_energy_consumed_j

    def test_trace_updates_stage_counts(self):
        r = MetricsReport()
        trace = StageTrace(counts=[("priority", 10, 6), ("opinion", 6, 5),
                                   ("review", 5, 5), ("sentiment", 5, 2)])
        record(r, trace)
        assert (r.readings_after_priority, r.readings_after_opinion,
                r.readings_after_review, r.readings_after_sentiment) == (6, 5, 5, 2)


class TestFinalize:
    def test_zero_generated_undefined_selectivity(self):
        r = finalize(MetricsReport())
        assert r.selectivity is None
        assert r.event_recall is None
        assert r.false_forward_rate is None

    def test_selectivity_quarter(self):
        r = MetricsReport(readings_generated=100, readings_delivered_to_sink=25)
        assert finalize(r).selectivity == 0.25

    def test_zero_delivered_undefined_false_forward(self):
        r = MetricsReport(readings_generated=10)
        assert finalize(r).false_forward_rate is None

    @pytest.mark.parametrize("mode", ["baseline", "framework"])
    def test_baseline_passes_every_reading_through(self, mode):
        r = finalize(MetricsReport(mode=mode, readings_generated=10))
        counts = (r.readings_after_dedup, r.readings_after_priority,
                  r.readings_after_opinion, r.readings_after_review,
                  r.readings_after_sentiment)
        assert counts == ((10,) * 5 if mode == "baseline" else (0,) * 5)


class TestSerialize:
    def test_csv_header_and_zero_row(self):
        text = to_csv(finalize(MetricsReport(mode="framework")))
        lines = text.splitlines()
        assert len(lines) == 2
        # the report format itself, not derived from the code under test
        assert lines[0] == (
            "mode,rounds_completed,readings_generated,readings_after_dedup,"
            "readings_after_priority,readings_after_opinion,"
            "readings_after_review,readings_after_sentiment,"
            "readings_delivered_to_sink,readings_lost_in_transit,"
            "total_bits_transmitted,total_energy_consumed_j,"
            "per_node_energy_remaining_j,first_node_death_round,"
            "network_death_round,selectivity,mean_hop_count,event_recall,"
            "false_forward_rate")
        cells = lines[1].split(",")
        assert cells[COLUMNS.index("first_node_death_round")] == "none"
        assert cells[COLUMNS.index("network_death_round")] == "none"
        assert cells[COLUMNS.index("selectivity")] == "undefined"
        assert cells[COLUMNS.index("readings_generated")] == "0"

    def test_serialize_twice_byte_identical(self):
        r = finalize(MetricsReport(mode="framework", readings_generated=7,
                                   readings_delivered_to_sink=3,
                                   total_energy_consumed_j=0.123456789012345,
                                   per_node_energy_remaining_j={0: 0.4, 1: 0.5}))
        assert serialize(r, "csv") == serialize(r, "csv")
        assert serialize(r, "json") == serialize(r, "json")

    def test_json_round_trip(self):
        r = MetricsReport(mode="framework", rounds_completed=5,
                          readings_generated=40, readings_after_dedup=30,
                          readings_after_priority=9, readings_after_opinion=8,
                          readings_after_review=7, readings_after_sentiment=6,
                          readings_delivered_to_sink=6,
                          total_bits_transmitted=999,
                          total_energy_consumed_j=1.2345678901234567e-3,
                          per_node_energy_remaining_j={0: 0.1, 3: 0.25},
                          first_node_death_round=4)
        finalize(r)
        obj = json.loads(to_json(r))
        assert set(obj) == set(COLUMNS)
        for c in COLUMNS:
            expected = getattr(r, c)
            if c == "per_node_energy_remaining_j":  # JSON keys are strings
                expected = {str(n): e for n, e in expected.items()}
            assert obj[c] == expected, c

    def test_full_float_precision(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        r = finalize(MetricsReport(total_energy_consumed_j=value))
        assert repr(value) in to_csv(r)
        assert json.loads(to_json(r))["total_energy_consumed_j"] == value

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize(MetricsReport(), "xml")
