"""Hop-by-hop packet movement with per-hop energy billing."""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .config import ScenarioConfig
from .core import Packet, SensorReading, make_packet
from .energy import EnergyLedger, RadioParams, rx_cost, tx_cost
from .errors import NoRoute
from .topology import Topology


@dataclass(frozen=True)
class TransmissionEvent:
    round: int
    packet: Packet
    hop: Tuple[int, int]
    distance: float
    tx_energy: float  # joules actually billed (0 at infinite-energy nodes)
    rx_energy: float


def send_along(route: Sequence[int], readings: Sequence[SensorReading],
               topology: Topology, radio: RadioParams, ledger: EnergyLedger,
               batch_cap: int = ScenarioConfig.batch_cap, round_no: int = 0):
    """Move readings along `route` in packets of at most batch_cap.

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

    events: List[TransmissionEvent] = []
    delivered: List[SensorReading] = []
    lost = 0
    for i in range(0, len(readings), batch_cap):
        chunk = readings[i:i + batch_cap]
        pkt = make_packet(route[0], route[-1], chunk)
        completed = True
        for a, b in zip(route, route[1:]):
            if not (ledger.alive(a) and ledger.alive(b)):
                completed = False
                break
            d = topology.distance(a, b)
            tx_applied = ledger.debit(a, tx_cost(radio, pkt.bits, d), round_no)
            rx_applied = ledger.debit(b, rx_cost(radio, pkt.bits), round_no)
            events.append(TransmissionEvent(round=round_no, packet=pkt,
                                            hop=(a, b), distance=d,
                                            tx_energy=tx_applied,
                                            rx_energy=rx_applied))
            # A node that overdraws finishes this one event, then drops out;
            # the packet's remaining hops are cancelled.
            died = False
            if not ledger.alive(a):
                topology.alive.discard(a)
                died = True
            if not ledger.alive(b):
                topology.alive.discard(b)
                died = True
            if died and b != route[-1]:
                completed = False
                break
        if completed:
            delivered.extend(chunk)
        else:
            lost += len(chunk)
    return events, delivered, lost
