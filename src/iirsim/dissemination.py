"""Packet movement along routes, billed by the energy ledger.

One `send_along` call moves one leg: each flow's readings along its route,
flow by flow. When every flow is one packet of one size and no battery on
the leg can run out, the leg is billed per node in one
`EnergyLedger.carry_leg` pass; otherwise each packet is billed along its
route by `EnergyLedger.carry`, in flow order. Both give the same bits, the
same balances and the same report, to the last bit.
"""
from __future__ import annotations

from typing import Callable, List, NamedTuple, Sequence, Tuple

from .config import ScenarioConfig
from .core import Packet, SensorReading, packet_bits
from .energy import EnergyLedger, RadioParams
from .metrics import MetricsReport
from .topology import Topology

Flow = Tuple[Sequence[int], Sequence[SensorReading]]  # (route, readings)


class TransmissionEvent(NamedTuple):
    round: int
    packet: Packet
    hop: Tuple[int, int]
    distance: float
    tx_energy: float  # joules actually billed (0 at infinite-energy nodes)
    rx_energy: float


class Hops(Sequence):
    """One call's hops as TransmissionEvents in hop order; the events are
    built when first read."""

    def __init__(self, count: int,
                 build: Callable[[], List[TransmissionEvent]]):
        self._count, self._build = count, build
        self._events = None

    def _built(self) -> List[TransmissionEvent]:
        if self._events is None:
            self._events, self._build = self._build(), None
        return self._events

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())


def send_along(flows: Sequence[Flow], topology: Topology, radio: RadioParams,
               ledger: EnergyLedger, report: MetricsReport,
               batch_cap: int = ScenarioConfig.batch_cap, round_no: int = 0):
    """Move each flow's readings along its route in packets of at most
    batch_cap, flow by flow, adding every hop's bits and billed energy to
    `report`.

    Returns (hops, delivered_readings, lost_reading_count), where `hops` is
    a read-only sequence of TransmissionEvents. A node death mid-route
    cancels the remaining hops for that packet; the loss is an outcome, not
    an error.
    """
    # A single flow has no charges to merge, so it is carried per packet.
    if len(flows) > 1:
        size = len(flows[0][1])
        if 0 < size <= batch_cap and all(len(rs) == size for _, rs in flows):
            routes = [route for route, _ in flows]
            bits = packet_bits(size)
            plan = ledger.carry_leg(routes, topology.nodes, bits, radio)
            if plan is not None:
                return _billed_per_node(flows, routes, bits, plan, topology,
                                        report, round_no)
    return _carry_each_packet(flows, topology, radio, ledger, report,
                              batch_cap, round_no)


def _billed_per_node(flows, routes, bits, plan, topology, report, round_no):
    """The report, hops and deliveries of a leg `carry_leg` billed."""
    tx_billed, rx_billed = plan.tx_billed, plan.rx_billed
    n_hops = len(plan.hop_energy)
    report.total_bits_transmitted += bits * n_hops
    report.add_energy(plan.hop_energy)

    def build():
        events = []
        for route in routes:
            pkt = Packet(route[0], route[-1], bits)
            events.extend(TransmissionEvent(round_no, pkt, (a, b), d,
                                            tx_billed[a], rx_billed[a])
                          for a, b, d in topology.legs(route))
        return events
    return Hops(n_hops, build), [r for _, rs in flows for r in rs], 0


def _carry_each_packet(flows, topology, radio, ledger, report, batch_cap,
                       round_no):
    """The leg packet by packet, each billed along its route by `carry`."""
    packets = []  # (packet, legs, billed) per packet sent
    delivered: List[SensorReading] = []
    lost = bits = 0
    energies: List[float] = []  # each hop's tx + rx billed, in hop order
    for route, readings in flows:
        legs = topology.legs(route)
        if not legs:
            delivered.extend(readings)
            continue
        last = route[-1]
        for i in range(0, len(readings), batch_cap):
            chunk = readings[i:i + batch_cap]
            pkt = Packet(route[0], last, packet_bits(len(chunk)))
            billed, arrived, killed = ledger.carry(legs, pkt.bits, radio,
                                                   round_no)
            packets.append((pkt, legs, billed))
            bits += pkt.bits * len(billed)
            energies.extend([tx + rx for tx, rx in billed])
            if killed:
                topology.alive.difference_update(killed)
            if arrived:
                delivered.extend(chunk)
            else:
                lost += len(chunk)
    report.total_bits_transmitted += bits
    report.add_energy(energies)

    def build():
        return [TransmissionEvent(round_no, pkt, (a, b), d, tx, rx)
                for pkt, legs, billed in packets
                for (a, b, d), (tx, rx) in zip(legs, billed)]
    return Hops(len(energies), build), delivered, lost
