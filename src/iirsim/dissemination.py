"""Hop-by-hop packet movement with per-hop energy billing."""
from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from .config import ScenarioConfig
from .core import Packet, SensorReading, make_packet
from .energy import EnergyLedger, RadioParams, rx_cost, tx_cost
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
    if len(route) == 1:
        return [], readings, 0

    alive, debit = ledger.alive, ledger.debit
    discard = topology.alive.discard
    last = route[-1]
    events: List[TransmissionEvent] = []
    delivered: List[SensorReading] = []
    lost = 0
    bits_total = 0
    for i in range(0, len(readings), batch_cap):
        chunk = readings[i:i + batch_cap]
        pkt = make_packet(route[0], last, chunk)
        bits = pkt.bits
        rx = rx_cost(radio, bits)
        completed = True
        for a, b in zip(route, route[1:]):
            if not (alive(a) and alive(b)):
                completed = False
                break
            d = topology.distance(a, b)
            tx_applied = debit(a, tx_cost(radio, bits, d), round_no)
            rx_applied = debit(b, rx, round_no)
            events.append(TransmissionEvent(round_no, pkt, (a, b), d,
                                            tx_applied, rx_applied))
            bits_total += bits
            # A node that overdraws finishes this one event, then drops out;
            # the packet's remaining hops are cancelled.
            died = False
            if not alive(a):
                discard(a)
                died = True
            if not alive(b):
                discard(b)
                died = True
            if died and b != last:
                completed = False
                break
        if completed:
            delivered.extend(chunk)
        else:
            lost += len(chunk)
    report.total_bits_transmitted += bits_total
    report.add_energy(e.tx_energy + e.rx_energy for e in events)
    return events, delivered, lost
