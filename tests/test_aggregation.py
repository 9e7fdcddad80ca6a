import random

import pytest

from iirsim.aggregation import (RoundSnapshot, collect_round, committed_values,
                                deduplicate)
from iirsim.core import SensorReading, canonical_order
from iirsim.errors import StaleReading


def reading(source, rnd, value):
    return SensorReading(source=source, round=rnd, value=value)


def dedup_oracle(readings, eps, last_forwarded):
    """Quadratic-scan reference: exact-duplicate collapse, then temporal
    eps-suppression against the per-source last forwarded value."""
    ordered = canonical_order(readings)
    retained = []
    for i, r in enumerate(ordered):
        ident = (r.source, r.round, r.value)
        if any((p.source, p.round, p.value) == ident for p in ordered[:i]):
            continue
        if r.source in last_forwarded and \
                abs(r.value - last_forwarded[r.source]) <= eps:
            continue
        retained.append(r)
    return retained


def random_snapshot(rng, rnd=0):
    readings = [reading(rng.randrange(6), rnd,
                        round(rng.uniform(0.0, 2.0), 1))
                for _ in range(rng.randrange(0, 15))]
    state = {s: round(rng.uniform(0.0, 2.0), 1)
             for s in range(6) if rng.random() < 0.5}
    return collect_round(readings, rnd), state


class TestCollect:
    def test_empty(self):
        assert collect_round([], 3).readings == ()

    def test_canonical_order(self):
        snap = collect_round([reading(2, 1, 5.0), reading(0, 1, 5.0),
                              reading(1, 1, 5.0)], 1)
        assert [r.source for r in snap.readings] == [0, 1, 2]

    def test_stale_round_rejected(self):
        with pytest.raises(StaleReading):
            collect_round([reading(0, 4, 1.0)], 5)

    @pytest.mark.parametrize("incoming, named", [
        # one stale reading in the middle, below or above the round
        ([reading(0, 5, 1.0), reading(3, 4, 2.0), reading(1, 5, 3.0)],
         "node 3 has round 4"),
        ([reading(0, 5, 1.0), reading(3, 7, 2.0), reading(1, 5, 3.0)],
         "node 3 has round 7"),
        # two stale readings: the first in input order is named, not the
        # first in canonical order
        ([reading(2, 6, 1.0), reading(0, 5, 1.0), reading(1, 4, 2.0)],
         "node 2 has round 6"),
        ([reading(0, 5, 1.0), reading(4, 3, 1.0), reading(1, 4, 2.0)],
         "node 4 has round 3"),
    ])
    def test_first_stale_reading_in_input_order_named(self, incoming, named):
        with pytest.raises(StaleReading, match=f"^reading from {named}, "
                                               f"expected 5$"):
            collect_round(incoming, 5)


class TestDeduplicate:
    def test_identity_when_distinct_and_eps_zero(self):
        snap = collect_round([reading(0, 0, 1.0), reading(1, 0, 2.0)], 0)
        out = deduplicate(snap, 0.0)
        assert out.readings == snap.readings
        assert len(snap.readings) - len(out.readings) == 0

    def test_exact_duplicate_collapses(self):
        snap = collect_round([reading(0, 0, 1.5), reading(0, 0, 1.5)], 0)
        out = deduplicate(snap, 0.0)
        assert len(snap.readings) - len(out.readings) == 1

    def test_temporal_suppression_uses_last_forwarded(self):
        snap = collect_round([reading(0, 1, 1.05), reading(1, 1, 5.0)], 1)
        out = deduplicate(snap, 0.1, last_forwarded={0: 1.0, 1: 3.0})
        assert [r.source for r in out.readings] == [1]

    def test_matches_quadratic_oracle(self):
        rng = random.Random(100)
        for _ in range(300):
            snap, state = random_snapshot(rng)
            eps = rng.choice([0.0, 0.05, 0.1, 0.5])
            out = deduplicate(snap, eps, state)
            expected = dedup_oracle(snap.readings, eps, state)
            assert list(out.readings) == expected

    def test_idempotent_within_round(self):
        rng = random.Random(101)
        for _ in range(100):
            snap, state = random_snapshot(rng)
            once = deduplicate(snap, 0.1, state)
            twice = deduplicate(once, 0.1, state)
            assert twice == once

    def test_permutation_invariant(self):
        rng = random.Random(102)
        for _ in range(100):
            snap, state = random_snapshot(rng)
            shuffled = list(snap.readings)
            rng.shuffle(shuffled)
            snap2 = collect_round(shuffled, snap.round)
            assert deduplicate(snap2, 0.1, state) == deduplicate(snap, 0.1, state)

    def test_contractive(self):
        rng = random.Random(103)
        for _ in range(100):
            snap, state = random_snapshot(rng)
            out = deduplicate(snap, 0.2, state)
            remaining = list(snap.readings)
            for r in out.readings:
                remaining.remove(r)  # raises if not a sub-multiset

    def test_pure_state_not_mutated(self):
        state = {0: 1.0}
        snap = collect_round([reading(0, 0, 5.0)], 0)
        deduplicate(snap, 0.1, state)
        assert state == {0: 1.0}


class TestCommitAndRatio:
    def test_committed_values_last_per_source(self):
        snap = RoundSnapshot(round=0, readings=(reading(0, 0, 1.0),
                                                reading(0, 0, 2.0),
                                                reading(1, 0, 9.0)))
        assert committed_values(snap) == {0: 2.0, 1: 9.0}
