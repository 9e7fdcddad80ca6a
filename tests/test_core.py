import random

from iirsim.core import (HEADER_BITS, READING_BITS, SensorReading,
                         canonical_order, make_reading, packet_bits)


def reading(source=0, rnd=0, value=0.0):
    return SensorReading(source=source, round=rnd, value=value)


class TestPacketBits:
    def test_header_only(self):
        assert packet_bits(0) == 64

    def test_single_reading(self):
        assert packet_bits(1) == 128

    def test_ten_readings(self):
        assert packet_bits(10) == 704

    def test_strictly_monotone(self):
        sizes = [packet_bits(n) for n in range(50)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


class TestCanonicalOrder:
    def test_empty(self):
        assert canonical_order([]) == []

    def test_orders_by_source_within_round(self):
        rs = [reading(source=2, rnd=1), reading(source=0, rnd=1)]
        assert [r.source for r in canonical_order(rs)] == [0, 2]

    def test_idempotent_and_permutation(self):
        rng = random.Random(7)
        for _ in range(50):
            rs = [reading(source=rng.randrange(5), rnd=rng.randrange(3),
                          value=rng.choice([1.0, 2.0, 3.0]))
                  for _ in range(rng.randrange(20))]
            once = canonical_order(rs)
            assert canonical_order(once) == once
            assert sorted(map(repr, once)) == sorted(map(repr, rs))

    def test_order_independent_of_input_permutation(self):
        rng = random.Random(11)
        rs = [reading(source=i % 4, rnd=i % 3, value=float(i % 5))
              for i in range(12)]
        shuffled = rs[:]
        rng.shuffle(shuffled)
        assert canonical_order(shuffled) == canonical_order(rs)


class TestReadingAndPacket:
    def test_packet_bits_match_payload(self):
        payload = [reading(), reading(source=1)]
        assert packet_bits(len(payload)) == HEADER_BITS + 2 * READING_BITS

    def test_scores_default_zero(self):
        r = reading()
        assert (r.priority_score, r.opinion_deviation,
                r.consensus_ratio) == (0.0, 0.0, 0.0)

    def test_make_reading_equals_positional_constructor(self):
        rng = random.Random(5)
        for _ in range(200):
            fields = (rng.randrange(-5, 100), rng.randrange(1000),
                      rng.uniform(-1e3, 1e3), rng.random(),
                      rng.choice((0.0, -0.0, rng.expovariate(1.0))),
                      rng.random())
            made = make_reading(fields)
            want = SensorReading(*fields)
            assert type(made) is SensorReading
            assert made == want and made.key() == want.key()
            assert [repr(f) for f in made] == [repr(f) for f in want]
