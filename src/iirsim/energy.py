"""First-order radio energy model and per-node battery accounting.

`EnergyLedger.carry` bills a whole packet's route in one call, hop by hop
exactly as `remaining`, `debit`, `tx_cost` and `rx_cost` would; those stay as
the single-charge reference that tests compare it against.

`EnergyLedger.carry_leg` bills a whole leg of one-packet flows per node
instead of per hop, when no battery on it can run out: each node's charges
then follow a fixed pattern, and replaying that pattern through the same
Kahan steps gives the same floats, in the same order, as `carry` would for
each packet in turn. The pattern depends only on the routes, so it is
planned once per route version (a `_LegPlan`: the finite senders grouped
into classes by pattern, each class with the closed-form leg total of any
one member, each route end's total, and every hop's billed joules);
whether every battery can pay, and the billing itself, are worked out on
every call. A class's chain is replayed once per call and its end state
given to every member that starts the call with the same balance; that
comparison also runs on every call. When some battery could run out it
bills nothing, and the caller carries the leg packet by packet.

Both return the one record kept of what the packets cost: the joules billed
per hop, its sender's charge plus its receiver's, in hop order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat
from operator import is_
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import kahan_add

E_ELEC_DEFAULT = 50e-9    # J/bit, transceiver electronics
E_AMP_DEFAULT = 100e-12   # J/bit/m^2, free-space amplifier

# Relative margin by which a node's balance after a leg billed per node must
# stay below its battery. The running Kahan sums differ from the closed-form
# totals by a few ulps, far inside this margin, so no charge in the leg can
# overdraw a battery or round it to empty.
GUARD_BAND = 1e-9


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


class _LegPlan(NamedTuple):
    """What `carry_leg` bills for one route version, every call the same."""
    rx: float  # each packet's receive charge
    # A sender's charges are its pattern (tx, pairs before its own packet,
    # pairs after), where a pair is (rx, tx); -1 pairs after when it sends
    # no packet of its own. (*pattern, leg total, senders) for each
    # pattern: the closed-form sum of the pattern's charges, which the
    # battery check reads for every member, and the finite senders that
    # have it.
    classes: List[Tuple[float, int, int, float, List[int]]]
    # (finite last node, packets received, leg total)
    ends: List[Tuple[int, int, float]]
    hop_energy: List[float]  # each hop's tx + rx billed, in hop order


def _chain(c: float, m: float, rx: float, tx: float, k: int,
           after: int) -> Tuple[float, float]:
    """The (consumed, comp) that `debit`'s Kahan steps leave after a
    sender's pattern of charges (see `_LegPlan.classes`), from (c, m)."""
    # The steps stay inline rather than `core.kahan_add` over a sequence of
    # the charges: this loop is about 20 % of a `baseline-1600` profile.
    for _ in repeat(None, k):
        y = rx - m
        t = c + y
        m = (t - c) - y
        y = tx - m
        c = t + y
        m = (c - t) - y
    if after >= 0:
        y = tx - m
        t = c + y
        m = (t - c) - y
        c = t
        for _ in repeat(None, after):
            y = rx - m
            t = c + y
            m = (t - c) - y
            y = tx - m
            c = t + y
            m = (c - t) - y
    return c, m


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
        self.death_rounds: Dict[int, int] = {}  # node -> round, in death order
        # (routes, nodes, bits, radio, plan or None) of each leg's last
        # carry_leg, by the role of its first origin
        self._legs: Dict[object, tuple] = {}

    @property
    def first_death_round(self) -> Optional[int]:
        return next(iter(self.death_rounds.values()), None)

    def remaining(self, node: int) -> float:
        init = self._initial[node]
        if math.isinf(init):
            return init
        return max(0.0, init - self._consumed[node])

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
            return remaining
        # Kahan step keeps long debit chains reconcilable bit-for-bit; it
        # stays inline, as the reference the other billing paths follow.
        y = amount - self._comp[node]
        t = consumed + y
        self._comp[node] = (t - consumed) - y
        self._consumed[node] = t
        if not t < init:  # rounding emptied the battery
            self.death_rounds[node] = round_no
        return amount

    def carry(self, legs: Sequence[Tuple[int, int, float]], bits: int,
              radio: RadioParams, round_no: int):
        """Move one packet of `bits` along `legs`, [(sender, receiver, metres)].

        Each hop is billed exactly as `debit(sender, tx_cost(radio, bits, d))`
        then `debit(receiver, rx_cost(radio, bits))`, made only if both ends
        have energy `remaining` before it. The packet stops before a hop with
        a dead end, and after a hop that kills its sender or a receiver other
        than the last one. The radio constants must be positive and finite (as
        `ScenarioConfig.validate` ensures) and `bits` positive, so every
        charge is positive.

        Returns (billed, arrived, killed): the joules billed per hop made,
        its sender's charge plus its receiver's, in hop order; whether the
        packet reached the last receiver; and the nodes whose battery ran out
        on the way, in the order they died.
        """
        initial, consumed, comp = self._initial, self._consumed, self._comp
        rx = bits * radio.e_elec
        amp = bits * radio.e_amp
        last = legs[-1][1]
        billed: List[float] = []
        killed: List[int] = []
        inf = math.inf
        # The two charges below are debit()'s steps with the checks that a
        # positive charge to an alive node makes redundant left out, inline
        # because this is the per-packet hot loop.
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
            billed.append(tx_billed + rx_billed)
            # A node whose battery this hop emptied, by overdraw or by
            # rounding, finishes the hop, then drops out; the packet's
            # remaining hops are cancelled.
            died = False
            if not consumed[a] < initial[a]:
                killed.append(a)
                self.death_rounds[a] = round_no
                died = True
            if not consumed[b] < initial[b]:
                killed.append(b)
                self.death_rounds[b] = round_no
                died = True
            if died and b != last:
                return billed, False, killed
        return billed, True, killed

    def carry_leg(self, routes: Sequence[Sequence[int]], nodes: Sequence,
                  bits: int, radio: RadioParams) -> Optional[List[float]]:
        """Carry one packet of `bits` along each route, in route order,
        billing per node instead of per hop; `nodes[i].pos` is node i's
        position.

        The ledger ends exactly as after `carry` of each packet in turn, and
        every packet arrives. That holds when the routes' origins are
        distinct, each sender sends to one receiver, no node both sends and
        ends a route, and every finite node on the routes would end the leg
        with its balance below its battery by more than the relative
        `GUARD_BAND`. Otherwise nothing is billed and the result is None.

        The routes decide everything but the balances, so their plan is
        built once and kept until a call for the same leg (the same
        `role` of the first origin: legs 1 and 2 of a framework round keep
        a plan each) passes other route list objects, `nodes`, `bits` or
        `radio`; routes are never changed in place. The battery check, which
        tests each class's leg total against every member's balance and each
        end's total against its own, and the billing run on every call.

        Returns the joules billed per hop, as `carry` gives them, in route
        order; the list is the plan's and the same on every call.
        """
        leg = nodes[routes[0][0]].role
        last = self._legs.get(leg)
        if not (last is not None and last[1] is nodes and last[2] == bits
                and last[3] == radio and len(last[0]) == len(routes)
                and all(map(is_, last[0], routes))):
            self._legs[leg] = last = None  # free the old plan before the build
            plan = self._plan_leg(routes, nodes, bits, radio)
            last = self._legs[leg] = (routes, nodes, bits, radio, plan)
        plan = last[4]
        if plan is None:
            return None
        initial, consumed, comp = self._initial, self._consumed, self._comp
        band = 1.0 + GUARD_BAND
        # An empty, NaN or too small battery fails the check.
        for _, _, _, total, members in plan.classes:
            for a in members:
                if not (consumed[a] + total) * band < initial[a]:
                    return None
        for e, _, total in plan.ends:
            if not (consumed[e] + total) * band < initial[e]:
                return None

        # debit's Kahan step, once per charge of a class's pattern. No
        # node's charges depend on another's, so members with equal balances
        # end equal. A NaN balance never compares equal, and the battery
        # check above has turned it away already.
        rx = plan.rx
        for tx, k, after, _, members in plan.classes:
            first = members[0]
            c0, m0 = consumed[first], comp[first]
            c1, m1 = _chain(c0, m0, rx, tx, k, after)
            for a in members:
                c, m = consumed[a], comp[a]
                if c == c0 and m == m0:
                    consumed[a], comp[a] = c1, m1
                else:
                    consumed[a], comp[a] = _chain(c, m, rx, tx, k, after)
        for e, k, _ in plan.ends:
            consumed[e], comp[e] = kahan_add(consumed[e], comp[e],
                                             repeat(rx, k))
        return plan.hop_energy

    def _plan_leg(self, routes, nodes, bits, radio) -> Optional[_LegPlan]:
        """`carry_leg`'s plan for `routes`, from one walk over their hops;
        None when their shape cannot be billed per node."""
        n = len(nodes)
        initial, inf = self._initial, math.inf
        rx = bits * radio.e_elec
        amp = bits * radio.e_amp
        recv = [-1] * n    # each sender's one receiver
        got = [0] * n      # packets received
        before = [-1] * n  # packets relayed before its own, or -1 if none own
        txs = [0.0] * n    # each sender's tx charge, 0 if never billed
        hop = [0.0] * n    # each sender's hop energy
        hop_energy: List[float] = []
        add_hop = hop_energy.append
        senders: List[int] = []
        ends = set()
        for route in routes:
            a = route[0]
            if len(route) < 2:  # arrives where it starts, with no hop
                continue
            if before[a] >= 0:
                return None
            before[a] = got[a]
            for b in islice(route, 1, None):
                r = recv[a]
                if r != b:
                    if r >= 0:
                        return None
                    recv[a] = b
                    senders.append(a)
                    # An infinite battery is never billed. The hop length
                    # is Topology.legs', the charge in tx_cost's association.
                    if initial[a] != inf:
                        ax, ay = nodes[a].pos
                        bx, by = nodes[b].pos
                        d = math.hypot(ax - bx, ay - by)
                        txs[a] = rx + amp * d * d
                    hop[a] = txs[a] + (rx if initial[b] != inf else 0.0)
                add_hop(hop[a])
                got[b] += 1
                a = b
            ends.add(a)

        # A relay is charged (rx, tx) per packet it relays before its own,
        # tx for its own, then (rx, tx) per packet after; a route's last
        # node rx per packet.
        patterns: Dict[Tuple[float, int, int], List[int]] = {}
        for a in senders:
            if initial[a] != inf:
                tx, relayed, k = txs[a], got[a], before[a]
                pattern = (tx, k, relayed - k) if k >= 0 else (tx, relayed, -1)
                patterns.setdefault(pattern, []).append(a)
        classes = []
        for (tx, k, after), members in patterns.items():
            if after >= 0:
                total = (k + after) * (rx + tx) + tx
            else:
                total = k * (rx + tx)
            classes.append((tx, k, after, total, members))
        finite_ends: List[Tuple[int, int, float]] = []
        for e in ends:
            if recv[e] >= 0:
                return None
            if initial[e] != inf:
                finite_ends.append((e, got[e], got[e] * rx))
        return _LegPlan(rx, classes, finite_ends, hop_energy)

