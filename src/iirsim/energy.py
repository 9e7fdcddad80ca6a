"""First-order radio energy model and per-node battery accounting."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

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
            self.death_rounds[node] = round_no
            if self.first_death_round is None:
                self.first_death_round = round_no
            return remaining
        # Kahan step keeps long debit chains reconcilable bit-for-bit.
        y = amount - self._comp[node]
        t = consumed + y
        self._comp[node] = (t - consumed) - y
        self._consumed[node] = t
        return amount

    def total_consumed(self) -> float:
        return math.fsum(self._initial[n] - self.remaining(n)
                         for n in self.finite_nodes())
