import math

import pytest

from iirsim.core import NodeRole, SensorReading, packet_bits
from iirsim.dissemination import send_along
from iirsim.energy import EnergyLedger, RadioParams, rx_cost, tx_cost
from iirsim.metrics import MetricsReport
from iirsim.topology import Node, Topology

RADIO = RadioParams()


def line_topology(n, spacing=10.0, energy=1.0, sink=None):
    sink = n - 1 if sink is None else sink
    adjacency = {i: set() for i in range(n)}
    for i in range(n - 1):
        adjacency[i].add(i + 1)
        adjacency[i + 1].add(i)
    nodes = [Node(i, NodeRole.SINK if i == sink else NodeRole.SENSOR,
                  (i * spacing, 0.0)) for i in range(n)]
    t = Topology(nodes=nodes, comm_radius=spacing, adjacency=adjacency,
                 alive=set(range(n)), sink=sink, sub_sink=None, aggregators=())
    ledger = EnergyLedger({i: (math.inf if i == sink else energy)
                           for i in range(n)})
    return t, ledger


def readings(n, rnd=0):
    return [SensorReading(source=0, round=rnd, value=float(i))
            for i in range(n)]


class TestSendAlong:
    def test_empty_readings_no_events(self):
        t, ledger = line_topology(2)
        report = MetricsReport()
        events, delivered, lost = send_along([0, 1], [], t, RADIO, ledger,
                                             report)
        assert events == [] and delivered == [] and lost == 0
        assert report == MetricsReport()

    def test_single_reading_single_hop(self):
        t, ledger = line_topology(2)
        events, delivered, lost = send_along([0, 1], readings(1), t, RADIO,
                                             ledger, MetricsReport(),
                                             batch_cap=10)
        assert len(events) == 1
        assert events[0].packet.bits == 128
        assert len(delivered) == 1 and lost == 0

    def test_batching_ceiling_division(self):
        # oracle: ceil(25 / 10) packets, each crossing every hop
        t, ledger = line_topology(4)
        route = [0, 1, 2, 3]
        events, delivered, lost = send_along(route, readings(25), t, RADIO,
                                             ledger, MetricsReport(),
                                             batch_cap=10)
        n_packets = -(-25 // 10)
        assert len(events) == n_packets * (len(route) - 1) == 9
        assert len(delivered) == 25 and lost == 0
        sizes = sorted({e.packet.bits for e in events})
        assert sizes == [packet_bits(5), packet_bits(10)]

    def test_self_route_delivers_without_events(self):
        t, ledger = line_topology(2)
        events, delivered, lost = send_along([0], readings(3), t, RADIO,
                                             ledger, MetricsReport())
        assert events == [] and len(delivered) == 3 and lost == 0

    def test_energy_billed_matches_radio_model(self):
        t, ledger = line_topology(3, spacing=8.0)
        events, _, _ = send_along([0, 1, 2], readings(2), t, RADIO, ledger,
                                  MetricsReport())
        for e in events:
            assert e.tx_energy == pytest.approx(
                tx_cost(RADIO, e.packet.bits, e.distance), rel=1e-12)
            if e.hop[1] != t.sink:
                assert e.rx_energy == pytest.approx(
                    rx_cost(RADIO, e.packet.bits), rel=1e-12)
            else:
                assert e.rx_energy == 0.0  # sink is never billed

    def test_death_mid_route_loses_packet(self):
        # node 1 can afford receiving but dies on its transmit
        t, ledger = line_topology(4, energy=1.0)
        ledger._initial[1] = rx_cost(RADIO, 128) + 1e-9
        events, delivered, lost = send_along([0, 1, 2, 3], readings(1), t,
                                             RADIO, ledger, MetricsReport())
        assert delivered == [] and lost == 1
        assert len(events) == 2  # hop 0->1 completes, 1->2 kills the sender
        assert 1 not in t.alive
        assert ledger.remaining(1) == 0.0

    def test_dead_route_node_cancels_before_sending(self):
        t, ledger = line_topology(3)
        t.alive.discard(1)
        ledger._initial[1] = 0.0
        events, delivered, lost = send_along([0, 1, 2], readings(4), t, RADIO,
                                             ledger, MetricsReport(),
                                             batch_cap=2)
        assert events == [] and delivered == [] and lost == 4

    def test_bits_billed_equal_bits_carried(self):
        t, ledger = line_topology(5)
        route = [0, 1, 2, 3, 4]
        events, _, _ = send_along(route, readings(33), t, RADIO, ledger,
                                  MetricsReport(), batch_cap=8)
        per_packet = {}
        for e in events:
            per_packet.setdefault(id(e.packet), [e.packet.bits, 0])[1] += 1
        total = sum(e.packet.bits for e in events)
        assert total == sum(bits * hops for bits, hops in per_packet.values())
