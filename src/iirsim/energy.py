"""First-order radio energy model and per-node battery accounting.

`EnergyLedger.carry` bills a whole packet's route in one call, hop by hop
exactly as `alive`, `debit`, `tx_cost` and `rx_cost` would; those stay as the
single-charge reference that tests compare it against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

E_ELEC_DEFAULT = 50e-9    # J/bit, transceiver electronics
E_AMP_DEFAULT = 100e-12   # J/bit/m^2, free-space amplifier


@dataclass(frozen=True)
class RadioParams:
    e_elec: float = E_ELEC_DEFAULT
    e_amp: float = E_AMP_DEFAULT


def tx_cost(p: RadioParams, bits: int, distance: float) -> float:
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return bits * p.e_elec + bits * p.e_amp * distance * distance


def rx_cost(p: RadioParams, bits: int) -> float:
    return bits * p.e_elec


class EnergyLedger:
    """Tracks battery drain for every node in a run.

    Per-node consumption is accumulated with Kahan compensation so that
    remaining = initial - sum(debits) reconciles with independently summed
    per-event costs at tight tolerance. Nodes with infinite initial energy
    (the sink) are never billed: debits there apply zero joules.
    """

    def __init__(self, initial_by_node: Dict[int, float]):
        self._initial = dict(initial_by_node)
        self._consumed = {n: 0.0 for n in initial_by_node}
        self._comp = {n: 0.0 for n in initial_by_node}
        self.death_rounds: Dict[int, int] = {}
        self.first_death_round: Optional[int] = None

    def remaining(self, node: int) -> float:
        init = self._initial[node]
        if math.isinf(init):
            return init
        return max(0.0, init - self._consumed[node])

    def alive(self, node: int) -> bool:
        # Same answer as remaining(node) > 0, including infinite, NaN and
        # zero initial energy, in one comparison.
        return self._consumed[node] < self._initial[node]

    def finite_nodes(self) -> list:
        return sorted(n for n, e in self._initial.items() if not math.isinf(e))

    def debit(self, node: int, amount: float, round_no: int) -> float:
        """Apply a charge; returns the joules actually billed."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        init = self._initial[node]
        if math.isinf(init) or amount == 0.0:
            return 0.0
        consumed = self._consumed[node]
        remaining = init - consumed
        if not remaining > 0.0:  # a NaN balance is empty, as in remaining()
            return 0.0
        if amount >= remaining:
            # Node completes this one event, then dies; battery pins to empty.
            self._consumed[node] = init
            self._comp[node] = 0.0
            self._record_death(node, round_no)
            return remaining
        # Kahan step keeps long debit chains reconcilable bit-for-bit.
        y = amount - self._comp[node]
        t = consumed + y
        self._comp[node] = (t - consumed) - y
        self._consumed[node] = t
        if not t < init:  # rounding emptied the battery
            self._record_death(node, round_no)
        return amount

    def carry(self, legs: Sequence[Tuple[int, int, float]], bits: int,
              radio: RadioParams, round_no: int):
        """Move one packet of `bits` along `legs`, [(sender, receiver, metres)].

        Each hop is billed exactly as `debit(sender, tx_cost(radio, bits, d))`
        then `debit(receiver, rx_cost(radio, bits))`, made only if both ends
        are `alive` before it. The packet stops before a hop with a dead end,
        and after a hop that kills its sender or a receiver other than the
        last one. The radio constants must be positive and finite (as
        `ScenarioConfig.validate` ensures) and `bits` positive, so every
        charge is positive.

        Returns (billed, arrived, killed): the joules (tx, rx) billed per hop
        made, in hop order; whether the packet reached the last receiver; and
        the nodes whose battery ran out on the way, in the order they died.
        """
        initial, consumed, comp = self._initial, self._consumed, self._comp
        rx = bits * radio.e_elec
        amp = bits * radio.e_amp
        last = legs[-1][1]
        billed: List[Tuple[float, float]] = []
        killed: List[int] = []
        inf = math.inf
        # The two charges below are debit()'s steps with the checks that a
        # positive charge to an alive node makes redundant left out.
        for a, b, d in legs:
            if not (consumed[a] < initial[a] and consumed[b] < initial[b]):
                return billed, False, killed
            tx = rx + amp * d * d  # tx_cost's association
            init = initial[a]
            if init == inf:
                tx_billed = 0.0
            else:
                c = consumed[a]
                remaining = init - c
                if tx >= remaining:
                    consumed[a], comp[a] = init, 0.0
                    tx_billed = remaining
                else:
                    y = tx - comp[a]
                    t = c + y
                    comp[a] = (t - c) - y
                    consumed[a] = t
                    tx_billed = tx
            init = initial[b]
            if init == inf:
                rx_billed = 0.0
            else:
                c = consumed[b]
                remaining = init - c
                if rx >= remaining:
                    consumed[b], comp[b] = init, 0.0
                    rx_billed = remaining
                else:
                    y = rx - comp[b]
                    t = c + y
                    comp[b] = (t - c) - y
                    consumed[b] = t
                    rx_billed = rx
            billed.append((tx_billed, rx_billed))
            # A node whose battery this hop emptied, by overdraw or by
            # rounding, finishes the hop, then drops out; the packet's
            # remaining hops are cancelled.
            died = False
            if not consumed[a] < initial[a]:
                killed.append(a)
                self._record_death(a, round_no)
                died = True
            if not consumed[b] < initial[b]:
                killed.append(b)
                self._record_death(b, round_no)
                died = True
            if died and b != last:
                return billed, False, killed
        return billed, True, killed

    def _record_death(self, node: int, round_no: int) -> None:
        self.death_rounds[node] = round_no
        if self.first_death_round is None:
            self.first_death_round = round_no
