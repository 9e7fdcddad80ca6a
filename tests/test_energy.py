import math
import random

import pytest

from iirsim.energy import EnergyLedger, RadioParams, rx_cost, tx_cost

RADIO = RadioParams()


class TestCosts:
    def test_tx_zero_bits(self):
        assert tx_cost(RADIO, 0, 50.0) == 0.0

    def test_tx_zero_distance(self):
        assert tx_cost(RADIO, 1000, 0.0) == pytest.approx(5.0e-5, rel=1e-12)

    def test_tx_with_amplifier_term(self):
        assert tx_cost(RADIO, 1000, 10.0) == pytest.approx(6.0e-5, rel=1e-12)

    def test_rx(self):
        assert rx_cost(RADIO, 0) == 0.0
        assert rx_cost(RADIO, 1000) == pytest.approx(5.0e-5, rel=1e-12)
        assert rx_cost(RADIO, 128) == pytest.approx(6.4e-6, rel=1e-12)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            tx_cost(RADIO, 1, -1.0)


class TestLedger:
    def test_conservation(self):
        ledger = EnergyLedger({0: 1.0, 1: 1.0})
        applied = []
        for i in range(1000):
            applied.append(ledger.debit(i % 2, 1e-4, round_no=i))
        drained = math.fsum(1.0 - ledger.remaining(n) for n in (0, 1))
        assert drained == pytest.approx(math.fsum(applied), rel=1e-12)

    def test_infinite_node_never_billed(self):
        ledger = EnergyLedger({0: math.inf})
        assert ledger.debit(0, 5.0, round_no=0) == 0.0
        assert ledger.remaining(0) > 0
        assert ledger.finite_nodes() == []

    def test_death_round_recorded(self):
        ledger = EnergyLedger({0: 1.0})
        ledger.debit(0, 0.6, round_no=3)
        assert ledger.first_death_round is None
        applied = ledger.debit(0, 0.6, round_no=7)  # overdraw
        assert applied == pytest.approx(0.4, rel=1e-12)
        assert ledger.first_death_round == 7
        assert ledger.remaining(0) == 0.0

    def test_dead_node_billed_nothing(self):
        ledger = EnergyLedger({0: 0.1})
        ledger.debit(0, 1.0, round_no=0)
        assert ledger.debit(0, 1.0, round_no=1) == 0.0

    def test_zero_debit_changes_nothing(self):
        ledger = EnergyLedger({0: 1.0})
        assert ledger.debit(0, 0.0, round_no=0) == 0.0
        assert ledger.remaining(0) == 1.0

    def test_exact_drain_kills(self):
        ledger = EnergyLedger({0: 1.0})
        ledger.debit(0, 0.25, round_no=1)
        applied = ledger.debit(0, 0.75, round_no=4)  # amount == remaining
        assert applied == 0.75
        assert ledger.remaining(0) == 0.0
        assert ledger.death_rounds == {0: 4}
        assert ledger.first_death_round == 4

    def test_rounding_to_empty_records_the_death(self):
        ledger = EnergyLedger({0: 1.0})
        ledger.debit(0, 0.75, round_no=2)
        charge = 0.25 - 2.0 ** -55  # below the balance, but 0.75 + charge == 1.0
        assert ledger.debit(0, charge, round_no=3) == charge
        assert ledger.remaining(0) == 0.0
        assert ledger.death_rounds == {0: 3}
        assert ledger.first_death_round == 3

    def test_remaining_within_bounds(self):
        # besides a 1 J battery: an infinite one (the sink), an empty one,
        # and NaN, which remaining() reads as empty
        for initial in (1.0, math.inf, 0.0, math.nan):
            ledger = EnergyLedger({0: initial})
            for i, amount in enumerate((0.3, 0.0, 0.01, 0.2, 2.0)):
                ledger.debit(0, amount, round_no=i)  # ends in an overdraw
                assert 0.0 <= ledger.remaining(0)
                assert not ledger.remaining(0) > initial
            assert (ledger.remaining(0) > 0) == math.isinf(initial)


def carry_hop_by_hop(ledger, legs, bits, radio, round_no):
    """carry() spelled out through remaining, debit, tx_cost and rx_cost."""
    billed, killed = [], []
    last = legs[-1][1]
    for a, b, d in legs:
        if not (ledger.remaining(a) > 0 and ledger.remaining(b) > 0):
            return billed, False, killed
        billed.append(ledger.debit(a, tx_cost(radio, bits, d), round_no) +
                      ledger.debit(b, rx_cost(radio, bits), round_no))
        died = [n for n in (a, b) if not ledger.remaining(n) > 0]
        killed.extend(died)
        if died and b != last:
            return billed, False, killed
    return billed, True, killed


def chain(route, metres=10.0):
    return [(a, b, metres) for a, b in zip(route, route[1:])]


def assert_twins_equal(carried, stepped):
    assert carried.death_rounds == stepped.death_rounds
    assert carried.first_death_round == stepped.first_death_round
    for n in carried._initial:
        assert carried.remaining(n) == stepped.remaining(n)
    assert carried._consumed == stepped._consumed
    assert carried._comp == stepped._comp


def carry_both(initial, legs, bits, radio=RADIO, round_no=5):
    """Carry one packet on a ledger and on its hop-by-hop twin; both must
    agree exactly. Returns carry's result."""
    carried, stepped = EnergyLedger(initial), EnergyLedger(initial)
    got = carried.carry(legs, bits, radio, round_no)
    assert got == carry_hop_by_hop(stepped, legs, bits, radio, round_no)
    assert_twins_equal(carried, stepped)
    return got, carried


class TestCarry:
    BITS = 128
    TX = tx_cost(RADIO, 128, 10.0)  # 1.28e-5 J over a 10 m hop
    RX = rx_cost(RADIO, 128)        # 6.4e-6 J

    def test_infinite_sink_billed_nothing(self):
        (billed, arrived, killed), ledger = carry_both(
            {0: 1.0, 1: 1.0, 2: math.inf}, chain([0, 1, 2]), self.BITS)
        assert arrived and killed == [] and len(billed) == 2
        assert billed[1] == self.TX
        assert ledger._consumed[2] == 0.0
        assert ledger.finite_nodes() == [0, 1]

    @pytest.mark.parametrize("empty", [0.0, math.nan], ids=["zero", "nan"])
    def test_empty_receiver_stops_before_hop(self, empty):
        (billed, arrived, killed), ledger = carry_both(
            {0: 1.0, 1: empty, 2: math.inf}, chain([0, 1, 2]), self.BITS)
        assert (billed, arrived, killed) == ([], False, [])
        assert ledger.remaining(0) == 1.0

    @pytest.mark.parametrize("empty", [0.0, math.nan], ids=["zero", "nan"])
    def test_dead_first_node_sends_nothing(self, empty):
        (billed, arrived, killed), ledger = carry_both(
            {0: empty, 1: 1.0, 2: math.inf}, chain([0, 1, 2]), self.BITS)
        assert (billed, arrived, killed) == ([], False, [])
        assert ledger.death_rounds == {}

    @pytest.mark.parametrize("share", [0.5, 1.0], ids=["overdraw", "exact"])
    def test_sender_dies_packet_lost(self, share):
        battery = self.TX * share
        (billed, arrived, killed), ledger = carry_both(
            {0: battery, 1: 1.0, 2: math.inf}, chain([0, 1, 2]), self.BITS)
        assert not arrived and killed == [0] and len(billed) == 1
        assert billed[0] == battery + self.RX
        assert ledger.remaining(0) == 0.0 and ledger._consumed[1] == self.RX
        assert ledger.death_rounds == {0: 5} and ledger.first_death_round == 5

    def test_sender_dies_on_last_hop_packet_arrives(self):
        (billed, arrived, killed), ledger = carry_both(
            {0: 1.0, 1: self.TX, 2: math.inf}, chain([0, 1, 2]), self.BITS)
        assert arrived and killed == [1] and len(billed) == 2
        # node 1 receives, then sends on what is left of its battery
        assert billed == [self.TX + self.RX, self.TX - self.RX]
        assert ledger._consumed[0] == self.TX and ledger.remaining(1) == 0.0

    def test_intermediate_receiver_dies_packet_lost(self):
        (billed, arrived, killed), ledger = carry_both(
            {0: 1.0, 1: self.RX, 2: 1.0, 3: math.inf}, chain([0, 1, 2, 3]),
            self.BITS)
        assert not arrived and killed == [1] and len(billed) == 1
        assert billed == [self.TX + self.RX]
        assert ledger._consumed[0] == self.TX and ledger.remaining(1) == 0.0
        assert ledger.remaining(2) == 1.0

    def test_final_receiver_dies_packet_arrives(self):
        (billed, arrived, killed), ledger = carry_both(
            {0: 1.0, 1: 1.0, 2: self.RX / 3}, chain([0, 1, 2]), self.BITS)
        assert arrived and killed == [2] and len(billed) == 2
        assert billed[1] == self.TX + self.RX / 3
        assert ledger._consumed[1] == self.RX + self.TX
        assert ledger.remaining(2) == 0.0
        assert ledger.death_rounds == {2: 5}

    def test_rounding_to_empty_kills_the_relay(self):
        # node 1 receives, then sends a charge below its balance that the
        # Kahan sum rounds up to exactly its battery
        tx = tx_cost(RADIO, self.BITS, 1.0)
        battery = self.RX + tx
        assert tx < battery - self.RX
        (billed, arrived, killed), ledger = carry_both(
            {0: 1.0, 1: battery, 2: math.inf}, chain([0, 1, 2], metres=1.0),
            self.BITS)
        assert arrived and killed == [1]
        assert billed[1] == tx  # the charge, not the balance; 0 at the sink
        assert ledger._consumed[1] == battery and ledger._consumed[2] == 0.0
        assert ledger.remaining(1) == 0.0
        assert ledger.death_rounds == {1: 5}

    def test_seeded_random_routes_equal_hop_by_hop(self):
        rng = random.Random(20151)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(2, 8)
            initial = {i: rng.choice((math.inf, 0.0, math.nan,
                                      rng.uniform(0.0, 2e-4),
                                      rng.uniform(0.0, 2e-3)))
                       for i in range(n)}
            radio = RadioParams(e_elec=rng.uniform(1e-9, 1e-7),
                                e_amp=rng.uniform(1e-12, 1e-9))
            carried, stepped = EnergyLedger(initial), EnergyLedger(initial)
            for round_no in range(rng.randint(1, 30)):
                route = [rng.randrange(n)]
                for _ in range(rng.randint(1, 7)):
                    route.append(rng.choice(
                        [i for i in range(n) if i != route[-1]]))
                legs = [(a, b, rng.uniform(0.0, 40.0))
                        for a, b in zip(route, route[1:])]
                bits = 64 + 64 * rng.randint(1, 16)
                got = carried.carry(legs, bits, radio, round_no)
                assert got == carry_hop_by_hop(stepped, legs, bits, radio,
                                               round_no)
                assert_twins_equal(carried, stepped)
                billed, arrived, killed = got
                outcomes.add((arrived, bool(billed), bool(killed)))
        # delivered and lost packets, with and without deaths on the way
        assert outcomes >= {(True, True, False), (True, True, True),
                            (False, False, False), (False, True, True)}
