import math

import pytest

from iirsim.energy import EnergyLedger, RadioParams, rx_cost, tx_cost

RADIO = RadioParams()


def assert_alive_agrees(ledger):
    """alive() is the direct test for what remaining() > 0 means."""
    for n in ledger._initial:
        assert ledger.alive(n) == (ledger.remaining(n) > 0)


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
        assert ledger.total_consumed() == pytest.approx(math.fsum(applied),
                                                        rel=1e-12)

    def test_infinite_node_never_billed(self):
        ledger = EnergyLedger({0: math.inf})
        assert ledger.debit(0, 5.0, round_no=0) == 0.0
        assert_alive_agrees(ledger)
        assert ledger.alive(0)
        assert ledger.finite_nodes() == []

    def test_death_round_recorded(self):
        ledger = EnergyLedger({0: 1.0})
        ledger.debit(0, 0.6, round_no=3)
        assert_alive_agrees(ledger)
        assert ledger.first_death_round is None
        applied = ledger.debit(0, 0.6, round_no=7)  # overdraw
        assert_alive_agrees(ledger)
        assert applied == pytest.approx(0.4, rel=1e-12)
        assert ledger.first_death_round == 7
        assert not ledger.alive(0)
        assert ledger.remaining(0) == 0.0

    def test_dead_node_billed_nothing(self):
        ledger = EnergyLedger({0: 0.1})
        ledger.debit(0, 1.0, round_no=0)
        assert ledger.debit(0, 1.0, round_no=1) == 0.0

    def test_zero_debit_changes_nothing(self):
        ledger = EnergyLedger({0: 1.0})
        assert ledger.debit(0, 0.0, round_no=0) == 0.0
        assert_alive_agrees(ledger)
        assert ledger.remaining(0) == 1.0 and ledger.alive(0)

    def test_exact_drain_kills(self):
        ledger = EnergyLedger({0: 1.0})
        ledger.debit(0, 0.25, round_no=1)
        assert_alive_agrees(ledger)
        applied = ledger.debit(0, 0.75, round_no=4)  # amount == remaining
        assert_alive_agrees(ledger)
        assert applied == 0.75
        assert ledger.remaining(0) == 0.0 and not ledger.alive(0)
        assert ledger.death_rounds == {0: 4}
        assert ledger.first_death_round == 4

    def test_remaining_within_bounds(self):
        # besides a 1 J battery: an infinite one (the sink), an empty one,
        # and NaN, which remaining() reads as empty
        for initial in (1.0, math.inf, 0.0, math.nan):
            ledger = EnergyLedger({0: initial})
            assert_alive_agrees(ledger)
            for i, amount in enumerate((0.3, 0.0, 0.01, 0.2, 2.0)):
                ledger.debit(0, amount, round_no=i)  # ends in an overdraw
                assert 0.0 <= ledger.remaining(0)
                assert not ledger.remaining(0) > initial
                assert_alive_agrees(ledger)
            assert ledger.alive(0) == math.isinf(initial)
