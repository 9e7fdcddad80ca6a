import contextlib
import math
import random

import pytest

from iirsim.core import NodeRole, SensorReading, packet_bits
from iirsim.dissemination import send_along
from iirsim.energy import (GUARD_BAND, EnergyLedger, RadioParams, rx_cost,
                           tx_cost)
from iirsim.metrics import MetricsReport
from iirsim.topology import Node, Topology

RADIO = RadioParams()


def line_topology(n, spacing=10.0, energy=1.0, sink=None):
    sink = n - 1 if sink is None else sink
    adjacency = {i: [] for i in range(n)}
    for i in range(n - 1):
        adjacency[i].append(i + 1)
        adjacency[i + 1].append(i)
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


@contextlib.contextmanager
def billed_joules():
    """Yield a list that gets, for every `MetricsReport.add_energy` call
    (one per `send_along` call), the joules billed per hop, in hop order."""
    joules = []
    add_energy = MetricsReport.add_energy

    def captured(report, hop_energies):
        joules.append(list(hop_energies))
        add_energy(report, joules[-1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MetricsReport, "add_energy", captured)
        yield joules


class TestSendAlong:
    def test_empty_readings_no_events(self):
        t, ledger = line_topology(2)
        report = MetricsReport()
        events, delivered, lost = send_along([([0, 1], [])], t, RADIO,
                                             ledger, report, batch_cap=16,
                                             round_no=0)
        assert list(events) == [] and delivered == [] and lost == 0
        assert report == MetricsReport()

    def test_single_reading_single_hop(self):
        t, ledger = line_topology(2)
        events, delivered, lost = send_along([([0, 1], readings(1))], t,
                                             RADIO, ledger, MetricsReport(),
                                             batch_cap=10, round_no=0)
        assert len(events) == 1
        assert events[0].packet.bits == 128
        assert len(delivered) == 1 and lost == 0

    def test_batching_ceiling_division(self):
        # oracle: ceil(25 / 10) packets, each crossing every hop
        t, ledger = line_topology(4)
        route = [0, 1, 2, 3]
        events, delivered, lost = send_along([(route, readings(25))], t,
                                             RADIO, ledger, MetricsReport(),
                                             batch_cap=10, round_no=0)
        n_packets = -(-25 // 10)
        assert len(events) == n_packets * (len(route) - 1) == 9
        assert len(delivered) == 25 and lost == 0
        sizes = sorted({e.packet.bits for e in events})
        assert sizes == [packet_bits(5), packet_bits(10)]

    def test_self_route_delivers_without_events(self):
        t, ledger = line_topology(2)
        events, delivered, lost = send_along([([0], readings(3))], t, RADIO,
                                             ledger, MetricsReport(),
                                             batch_cap=16, round_no=0)
        assert list(events) == [] and len(delivered) == 3 and lost == 0

    def test_energy_billed_matches_radio_model(self):
        t, ledger = line_topology(3, spacing=8.0)
        route = [0, 1, 2]
        with billed_joules() as joules:
            events, _, _ = send_along([(route, readings(2))], t, RADIO,
                                      ledger, MetricsReport(), batch_cap=16,
                                      round_no=0)
        bits = packet_bits(2)
        assert [e.packet.bits for e in events] == [bits, bits]
        (billed,), legs = joules, t.legs(route)
        assert len(billed) == len(legs) == 2
        for (_, b, d), e in zip(legs, billed):
            tx = tx_cost(RADIO, bits, d)
            # the sink is never billed
            rx = rx_cost(RADIO, bits) if b != t.sink else 0.0
            assert e == pytest.approx(tx + rx, rel=1e-12)
        # each end's share: 0 sends, 1 receives and sends, 2 is the sink
        (_, _, d0), (_, _, d1) = legs
        assert ledger._consumed[0] == pytest.approx(
            tx_cost(RADIO, bits, d0), rel=1e-12)
        assert ledger._consumed[1] == pytest.approx(
            rx_cost(RADIO, bits) + tx_cost(RADIO, bits, d1), rel=1e-12)

    def test_death_mid_route_loses_packet(self):
        # node 1 can afford receiving but dies on its transmit
        t, ledger = line_topology(4, energy=1.0)
        ledger._initial[1] = rx_cost(RADIO, 128) + 1e-9
        events, delivered, lost = send_along([([0, 1, 2, 3], readings(1))],
                                             t, RADIO, ledger, MetricsReport(),
                                             batch_cap=16, round_no=0)
        assert delivered == [] and lost == 1
        assert len(events) == 2  # hop 0->1 completes, 1->2 kills the sender
        assert 1 not in t.alive
        assert ledger.remaining(1) == 0.0

    def test_dead_route_node_cancels_before_sending(self):
        t, ledger = line_topology(3)
        t.alive.discard(1)
        ledger._initial[1] = 0.0
        events, delivered, lost = send_along([([0, 1, 2], readings(4))], t,
                                             RADIO, ledger, MetricsReport(),
                                             batch_cap=2, round_no=0)
        assert list(events) == [] and delivered == [] and lost == 4

    def test_bits_billed_equal_bits_carried(self):
        t, ledger = line_topology(5)
        route = [0, 1, 2, 3, 4]
        events, _, _ = send_along([(route, readings(33))], t, RADIO, ledger,
                                  MetricsReport(), batch_cap=8, round_no=0)
        per_packet = {}
        for e in events:
            per_packet.setdefault(id(e.packet), [e.packet.bits, 0])[1] += 1
        total = sum(e.packet.bits for e in events)
        assert total == sum(bits * hops for bits, hops in per_packet.values())


def tree_topology(energy):
    """Sensors 3-7 send to aggregator 2 over a tree in which the sink (0)
    and the sub-sink (1) relay; irregular positions give every hop its own
    length."""
    pos = [(0.0, 0.0), (7.5, 3.0), (4.0, 11.0), (-6.0, 4.5), (13.0, -2.0),
           (21.0, -6.5), (15.5, 5.0), (-3.0, -9.0)]
    roles = {0: NodeRole.SINK, 1: NodeRole.SUB_SINK, 2: NodeRole.AGGREGATOR}
    nodes = [Node(i, roles.get(i, NodeRole.SENSOR), p)
             for i, p in enumerate(pos)]
    t = Topology(nodes=nodes, comm_radius=20.0,
                 adjacency={i: [] for i in range(len(pos))},
                 alive=set(range(len(pos))), sink=0, sub_sink=1,
                 aggregators=(2,))
    ledger = EnergyLedger({i: (math.inf if i == 0 else energy * (1 + i / 7))
                           for i in range(len(pos))})
    # 5's packet crosses 4 before 4's own, 6's after it
    routes = [[5, 4, 1, 2], [3, 0, 2], [4, 1, 2], [6, 4, 1, 2], [7, 3, 0, 2]]
    return t, ledger, routes


def line_leg(energy):
    """Every node of a line sends one packet to the sink at its end."""
    t, ledger = line_topology(6, spacing=9.0, energy=energy)
    return t, ledger, [list(range(i, 6)) for i in range(5)]


def lattice_leg(energy):
    """Four chains of three sensors, 9 m apart along the axes, each send one
    packet to the sink at their common end: the sensors at one distance
    from the sink share their hop energy and relay counts, and those at
    every distance share their hop energy."""
    axes = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    pos = [(0.0, 0.0)] + [(dx * 9.0 * i, dy * 9.0 * i)
                          for dx, dy in axes for i in (1, 2, 3)]
    nodes = [Node(i, NodeRole.SINK if i == 0 else NodeRole.SENSOR, p)
             for i, p in enumerate(pos)]
    t = Topology(nodes=nodes, comm_radius=9.0,
                 adjacency={i: [] for i in range(len(pos))},
                 alive=set(range(len(pos))), sink=0, sub_sink=None,
                 aggregators=())
    ledger = EnergyLedger({i: (math.inf if i == 0 else energy)
                           for i in range(len(pos))})
    routes = [list(range(j + i, j, -1)) + [0]
              for j in range(0, 12, 3) for i in (3, 2, 1)]
    return t, ledger, routes


def kahan_sum(charges):
    """The balance `debit` leaves after `charges`, from empty."""
    ledger = EnergyLedger({0: 1.0})
    for c in charges:
        ledger.debit(0, c, round_no=0)
    return ledger._consumed[0]


def send_leg(make, energy, rounds, decline=False, radio=RADIO):
    """Send one reading from each route's origin, `rounds` times, as one leg
    a round; see `send_legs`."""
    t, ledger, routes = make(energy)
    return send_legs(t, ledger, [(routes, 1, rounds)], decline, radio)


def send_legs(t, ledger, steps, decline=False, radio=RADIO):
    """For each step `(routes, size, rounds)` in turn, send `size` readings
    from each route's origin, `rounds` times, as one leg a round, on one
    ledger; with `decline`, carry_leg bills nothing, so every packet goes
    through carry. Returns the ledger, the report, each round's
    (hops, delivered, lost, joules billed per hop), the arguments of every
    carry call and the number of leg plans built."""
    report = MetricsReport()
    carried, plans = [], []
    with pytest.MonkeyPatch.context() as mp, billed_joules() as joules:
        if decline:
            mp.setattr(EnergyLedger, "carry_leg", lambda *args: None)
        carry, plan_leg = EnergyLedger.carry, EnergyLedger._plan_leg

        def counted(self, *args):
            carried.append(args)
            return carry(self, *args)

        def counted_plan(self, *args):
            plans.append(args)
            return plan_leg(self, *args)
        mp.setattr(EnergyLedger, "carry", counted)
        mp.setattr(EnergyLedger, "_plan_leg", counted_plan)
        sent, rnd = [], 0
        for routes, size, rounds in steps:
            for _ in range(rounds):
                flows = [(r, [SensorReading(source=r[0], round=rnd,
                                            value=float(i))
                              for i in range(size)])
                         for r in routes]
                hops, delivered, lost = send_along(flows, t, radio, ledger,
                                                   report, batch_cap=16,
                                                   round_no=rnd)
                sent.append((list(hops), delivered, lost, joules[-1]))
                rnd += 1
    return ledger, report, sent, carried, len(plans)


def assert_same_outcome(a, b):
    (la, ra, sa, _, _), (lb, rb, sb, _, _) = a, b
    assert la._consumed == lb._consumed
    assert la._comp == lb._comp
    assert la.death_rounds == lb.death_rounds
    assert ra.total_energy_consumed_j == rb.total_energy_consumed_j
    assert ra._energy_comp == rb._energy_comp
    assert ra.total_bits_transmitted == rb.total_bits_transmitted
    assert sa == sb


def kept_plan(ledger):
    """The one leg plan `ledger` keeps."""
    (kept,) = ledger._legs.values()
    return kept[4]


def uniform_spot(rng):
    return (rng.uniform(0, 40), rng.uniform(0, 40))


def lattice_spot(rng):
    return (rng.randrange(5) * 10.0, rng.randrange(5) * 10.0)


def check_random_legs(rng, spot, legs=150):
    """Send `legs` random legs from `rng`, each node placed at `spot(rng)`,
    4 rounds each, and assert each equals its per-packet twin. Returns the
    set of (declined, deaths) seen and the plans of the legs billed per
    node."""
    outcomes, plans = set(), []
    for _ in range(legs):
        n = rng.randint(2, 12)
        energy = rng.choice((1.0, 2e-3, 3e-4))
        radio = RadioParams(e_elec=rng.uniform(1e-9, 1e-7),
                            e_amp=rng.uniform(1e-12, 1e-9))
        # a forest toward lower ids; some origins repeat, some routes stop
        # short, some nodes start empty or infinite
        up = [rng.randrange(-1, i) for i in range(n)]
        origins = rng.sample(range(n), rng.randint(2, n))
        if rng.random() < 0.2:
            origins.append(rng.choice(origins))
        stop = 0.3 if rng.random() < 0.3 else 0.0
        routes = []
        for o in origins:
            route = [o]
            while up[route[-1]] >= 0 and rng.random() >= stop:
                route.append(up[route[-1]])
            routes.append(route)
        initial = [rng.choice((math.inf, energy * rng.random(), energy,
                               energy, energy, energy))
                   for _ in range(n)]
        if rng.random() < 0.1:
            initial[rng.randrange(n)] = 0.0
        nodes = [Node(i, NodeRole.SENSOR, spot(rng)) for i in range(n)]

        def make(_, routes=routes, initial=initial, nodes=nodes):
            t = Topology(nodes=nodes, comm_radius=40.0,
                         adjacency={i: [] for i in range(len(nodes))},
                         alive=set(range(len(nodes))), sink=0,
                         sub_sink=None, aggregators=())
            return t, EnergyLedger(dict(enumerate(initial))), routes
        got = send_leg(make, None, rounds=4, radio=radio)
        want = send_leg(make, None, rounds=4, radio=radio, decline=True)
        assert_same_outcome(got, want)
        carried, deaths = bool(got[3]), bool(got[0].death_rounds)
        outcomes.add((carried, deaths))
        if not carried:
            plans.append(kept_plan(got[0]))
    return outcomes, plans


class TestPerNodeBilling:
    @pytest.mark.parametrize("make", [line_leg, tree_topology])
    def test_equals_per_packet_carry(self, make):
        per_node = send_leg(make, 0.37, rounds=6)
        per_packet = send_leg(make, 0.37, rounds=6, decline=True)
        assert per_node[3] == [] and per_packet[3]
        assert per_node[0].death_rounds == {}
        assert per_node[1].total_bits_transmitted > 0
        assert_same_outcome(per_node, per_packet)

    @pytest.mark.parametrize("share", [1.0, 1.0 + GUARD_BAND / 2,
                                       1.0 + 2 * GUARD_BAND],
                             ids=["ends_empty", "inside_band", "outside_band"])
    def test_guard_band(self, share):
        # relay 1 sends its own packet, then relays 0's, for 3 rounds on one
        # plan; its battery is `share` times the Kahan sum of all 3 rounds,
        # so only the last round can cross the band, and it dies or nearly
        # so relaying 0's packet
        def make(energy):
            t, ledger = line_topology(4, spacing=10.0, energy=1.0)
            tx, rx = tx_cost(RADIO, 128, 10.0), rx_cost(RADIO, 128)
            ledger._initial[1] = energy * kahan_sum([tx, rx, tx] * 3)
            return t, ledger, [[1, 2, 3], [0, 1, 2, 3]]
        got = send_leg(make, share, rounds=3)
        want = send_leg(make, share, rounds=3, decline=True)
        assert_same_outcome(got, want)
        ledger, _, sent, carried, plans = got
        assert plans == 1
        declined = share < 1.0 + GUARD_BAND
        assert {args[-1] for args in carried} == ({2} if declined else set())
        assert [lost for _, _, lost, _ in sent] == [0, 0, int(share == 1.0)]
        assert ledger.death_rounds == ({1: 2} if share == 1.0 else {})

    def test_plan_reused_until_routes_or_size_change(self):
        # one ledger: 3 rounds on the same route lists, 2 on new lists
        # that make another tree from the same origins, then 2 with two
        # readings per packet
        t, ledger, routes = tree_topology(0.37)
        other = [[5, 6, 1, 2], [3, 0, 2], [4, 0, 2], [6, 1, 2], [7, 3, 0, 2]]
        steps = [(routes, 1, 3), (other, 1, 2), (other, 2, 2)]
        got = send_legs(t, ledger, steps)
        t, ledger, _ = tree_topology(0.37)
        want = send_legs(t, ledger, steps, decline=True)
        assert_same_outcome(got, want)
        _, report, sent, carried, plans = got
        assert carried == [] and plans == 3
        assert [len(hops) for hops, *_ in sent] == [13] * 3 + [12] * 4
        bits = [hops[0].packet.bits for hops, *_ in sent]
        assert bits == [packet_bits(1)] * 5 + [packet_bits(2)] * 2
        assert report.total_bits_transmitted == (
            13 * 3 * packet_bits(1) + 12 * 2 * packet_bits(1) +
            12 * 2 * packet_bits(2))

    def test_shared_patterns_replayed_once_per_balance(self):
        # sensor 5 shares its pattern with 2, 8 and 11, but a packet it
        # sent to 4 in round 0, before the leg, leaves it (and 4) with
        # another balance than the rest of its class
        def make(energy):
            t, ledger, routes = lattice_leg(energy)
            ledger.carry(t.legs([5, 4]), packet_bits(1), RADIO, 0)
            return t, ledger, routes
        for rounds in range(1, 5):
            got = send_leg(make, 0.37, rounds)
            assert_same_outcome(got, send_leg(make, 0.37, rounds,
                                              decline=True))
            ledger, _, _, carried, _ = got
            assert carried == [] and ledger.death_rounds == {}
        plan = kept_plan(ledger)
        assert sorted(members for *_, members in plan.classes) == [
            [1, 4, 7, 10], [2, 5, 8, 11], [3, 6, 9, 12]]
        assert ledger._consumed[5] != ledger._consumed[2]
        assert ledger._consumed[4] != ledger._consumed[1]

    def test_guard_checks_every_class_member(self):
        # sensor 8, third of the class [2, 5, 8, 11], has a battery of half
        # the leg's charges to it, (rx, tx) for 9's packet then tx for its
        # own: the leg is declined, and 8 dies relaying 9's packet
        def make(energy):
            t, ledger, routes = lattice_leg(energy)
            tx = tx_cost(RADIO, packet_bits(1), 9.0)
            ledger._initial[8] = kahan_sum([rx_cost(RADIO, packet_bits(1)),
                                            tx, tx]) / 2
            return t, ledger, routes
        got = send_leg(make, 0.37, rounds=1)
        assert_same_outcome(got, send_leg(make, 0.37, rounds=1, decline=True))
        ledger, _, _, carried, _ = got
        assert carried and ledger.death_rounds == {8: 0}
        plan = kept_plan(ledger)
        assert [2, 5, 8, 11] in [members for *_, members in plan.classes]

    def test_seeded_random_legs_equal_per_packet(self):
        outcomes, _ = check_random_legs(random.Random(20153), uniform_spot)
        # legs billed per node, and declined with and without deaths
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_seeded_lattice_legs_equal_per_packet(self):
        # lattice points make equal hop lengths, so senders share patterns
        outcomes, plans = check_random_legs(random.Random(20154),
                                            lattice_spot)
        assert outcomes == {(False, False), (True, False), (True, True)}
        assert any(len(members) > 1
                   for plan in plans for *_, members in plan.classes)

    def test_shared_sender_two_receivers_declines(self):
        t, ledger = line_topology(4)
        assert ledger.carry_leg([[0, 1, 3], [1, 2, 3]], t.nodes, 128,
                                RADIO) is None
        assert all(c == 0.0 for c in ledger._consumed.values())
