"""Packet movement along a route, billed hop by hop by the energy ledger."""
from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from .config import ScenarioConfig
from .core import Packet, SensorReading, packet_bits
from .energy import EnergyLedger, RadioParams
from .errors import NoRoute
from .metrics import MetricsReport
from .topology import Topology


class TransmissionEvent(NamedTuple):
    round: int
    packet: Packet
    hop: Tuple[int, int]
    distance: float
    tx_energy: float  # joules actually billed (0 at infinite-energy nodes)
    rx_energy: float


def send_along(route: Sequence[int], readings: Sequence[SensorReading],
               topology: Topology, radio: RadioParams, ledger: EnergyLedger,
               report: MetricsReport,
               batch_cap: int = ScenarioConfig.batch_cap, round_no: int = 0):
    """Move readings along `route` in packets of at most batch_cap, adding
    every hop's bits and billed energy to `report`.

    Returns (events, delivered_readings, lost_reading_count). A node death
    mid-route cancels the remaining hops for that packet; the loss is an
    outcome, not an error.
    """
    if not route:
        raise NoRoute("empty route")
    if batch_cap < 1:
        raise ValueError("batch_cap must be positive")
    readings = list(readings)
    legs = topology.legs(route)
    if not legs:
        return [], readings, 0

    last = route[-1]
    events: List[TransmissionEvent] = []
    delivered: List[SensorReading] = []
    lost = 0
    bits_total = 0
    for i in range(0, len(readings), batch_cap):
        chunk = readings[i:i + batch_cap]
        pkt = Packet(route[0], last, packet_bits(len(chunk)))
        billed, arrived, killed = ledger.carry(legs, pkt.bits, radio, round_no)
        for (a, b, d), (tx, rx) in zip(legs, billed):
            events.append(TransmissionEvent(round_no, pkt, (a, b), d, tx, rx))
        bits_total += pkt.bits * len(billed)
        topology.alive.difference_update(killed)
        if arrived:
            delivered.extend(chunk)
        else:
            lost += len(chunk)
    report.total_bits_transmitted += bits_total
    report.add_energy(e.tx_energy + e.rx_energy for e in events)
    return events, delivered, lost
