"""Packet movement along routes, billed by the energy ledger.

One `send_along` call moves one leg: each flow's readings along its route,
flow by flow. When every flow is one packet of one size and no battery on
the leg can run out, the leg is billed per node in one
`EnergyLedger.carry_leg` pass; otherwise each packet is billed along its
route by `EnergyLedger.carry`, in flow order. Both give the same bits, the
same balances and the same report, to the last bit. The joules billed per
hop go to the report and nowhere else; the returned hops say only which
packet made each hop.
"""
from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from .core import Packet, SensorReading, packet_bits
from .energy import EnergyLedger, RadioParams
from .metrics import MetricsReport
from .topology import Topology

Flow = Tuple[Sequence[int], Sequence[SensorReading]]  # (route, readings)


class TransmissionEvent(NamedTuple):
    packet: Packet


class Hops(Sequence):
    """One call's `count` hops in hop order, each the TransmissionEvent of
    the packet that made it. They are built when first read from `sent`,
    (route, packet bits, hops made) per packet: one event per packet,
    repeated once per hop it made."""

    def __init__(self, sent, count: int):
        self._sent, self._count, self._events = sent, count, None

    def _built(self) -> List[TransmissionEvent]:
        if self._events is None:
            events = []
            for route, bits, made in self._sent:
                event = TransmissionEvent(Packet(route[0], route[-1], bits))
                events += [event] * made
            self._events, self._sent = events, None
        return self._events

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())


def send_along(flows: Sequence[Flow], topology: Topology, radio: RadioParams,
               ledger: EnergyLedger, report: MetricsReport,
               batch_cap: int, round_no: int):
    """Move each flow's readings along its route in packets of at most
    batch_cap, flow by flow, adding every hop's bits and billed energy to
    `report`.

    Returns (hops, delivered_readings, lost_reading_count), where `hops` is
    a read-only sequence of TransmissionEvents. A node death mid-route
    cancels the remaining hops for that packet; the loss is an outcome, not
    an error.
    """
    energies = None
    # A single flow has no charges to merge, so it is carried per packet.
    if len(flows) > 1:
        size = len(flows[0][1])
        if 0 < size <= batch_cap and all(len(rs) == size for _, rs in flows):
            routes = [route for route, _ in flows]
            bits = packet_bits(size)
            energies = ledger.carry_leg(routes, topology.nodes, bits, radio)
    if energies is not None:
        sent = ((route, bits, len(route) - 1) for route in routes)
        delivered = [r for _, rs in flows for r in rs]
        lost, total_bits = 0, bits * len(energies)
    else:
        sent, energies, delivered, lost, total_bits = _carry_each_packet(
            flows, topology, radio, ledger, batch_cap, round_no)
    report.total_bits_transmitted += total_bits
    report.add_energy(energies)
    return Hops(sent, len(energies)), delivered, lost


def _carry_each_packet(flows, topology, radio, ledger, batch_cap, round_no):
    """The leg packet by packet, each billed along its route by `carry`."""
    sent = []  # (route, packet bits, hops made) per packet sent
    delivered: List[SensorReading] = []
    lost = total_bits = 0
    energies: List[float] = []  # each hop's billed joules, in hop order
    for route, readings in flows:
        legs = topology.legs(route)
        if not legs:
            delivered.extend(readings)
            continue
        for i in range(0, len(readings), batch_cap):
            chunk = readings[i:i + batch_cap]
            bits = packet_bits(len(chunk))
            billed, arrived, killed = ledger.carry(legs, bits, radio,
                                                   round_no)
            sent.append((route, bits, len(billed)))
            total_bits += bits * len(billed)
            energies.extend(billed)
            if killed:
                topology.alive.difference_update(killed)
            if arrived:
                delivered.extend(chunk)
            else:
                lost += len(chunk)
    return sent, energies, delivered, lost, total_bits
