"""Shared simulator vocabulary: readings, roles, packets, canonical ordering."""
from __future__ import annotations

import functools
import os
import tempfile
from enum import Enum
from operator import add, itemgetter
from typing import Iterable, NamedTuple, Sequence, Tuple, Type

from .errors import SimError

HEADER_BITS = 64
READING_BITS = 64

STAGE_PRIORITY = "priority"
STAGE_OPINION = "opinion"
STAGE_REVIEW = "review"
STAGE_SENTIMENT = "sentiment"
STAGES = (STAGE_PRIORITY, STAGE_OPINION, STAGE_REVIEW, STAGE_SENTIMENT)

LABEL_FORWARD = "forward"
LABEL_DISCARD = "discard"


class NodeRole(str, Enum):
    SENSOR = "sensor"
    AGGREGATOR = "aggregator"
    SUB_SINK = "sub_sink"
    SINK = "sink"


class SensorReading(NamedTuple):
    # `value` is checked finite once, where it is sensed (engine.sense).
    source: int
    round: int
    value: float
    # Staircase scores; each stays 0.0 until its stage keeps the reading.
    # Distance outside the nominal band, in band widths (priority).
    priority_score: float = 0.0
    # |value - mean of the source's recent forwarded values|; the band
    # width for a source with no history (opinion).
    opinion_deviation: float = 0.0
    # Share of neighbour readings within tau_r of the value (review).
    consensus_ratio: float = 0.0

    def key(self) -> Tuple[int, int]:
        # (source, round) is unique within an engine run: one sample per
        # sensor per round, duplicates removed before forwarding.
        return (self.source, self.round)


# A SensorReading from one tuple of all six fields, with no defaults and no
# count check, at about 0.6 of the cost of `SensorReading(...)`'s __new__.
make_reading = functools.partial(tuple.__new__, SensorReading)


class Packet(NamedTuple):
    src: int
    dst: int
    bits: int


def packet_bits(n_readings: int) -> int:
    """Size of a packet carrying n_readings samples, in bits."""
    return HEADER_BITS + n_readings * READING_BITS


_ROUND_SOURCE_VALUE = itemgetter(1, 0, 2)  # (r.round, r.source, r.value)


def canonical_order(readings: Sequence[SensorReading]) -> list:
    """Stable sort by (round, source, value); the determinism anchor for
    every operation that iterates over a round's readings."""
    return sorted(readings, key=_ROUND_SOURCE_VALUE)


def fold_sum(values: Iterable[float]) -> float:
    """The total of `values` added left to right from int 0, rounding once
    per add: the one rule for a plain float total.

    Builtin `sum` must not total floats here: from CPython 3.12 it
    compensates float sums (gh-100425), so the same run would give other
    bits on 3.12 than on 3.10 and 3.11. This is 3.11's `sum`, exactly.
    """
    return functools.reduce(add, values, 0)


def kahan_add(total: float, comp: float,
              values: Iterable[float]) -> Tuple[float, float]:
    """Kahan-add `values`, in order, to `total` with compensation `comp`;
    returns the new (total, comp): the one rule for an energy total."""
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total, comp


def mix_seed(seed: int, salt: int) -> int:
    """Derive the seed of a purpose-specific random stream from the scenario seed."""
    return (seed * 0x9E3779B97F4A7C15 + salt) % (1 << 64)


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file and os.replace: `path` is never left half written."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".iirsim-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str, what: str, error: Type[SimError]) -> str:
    """Read a UTF-8 text file; bytes that are not UTF-8 raise `error`."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise error(f"{what} file {path!r} is not UTF-8: "
                    f"{exc.reason} at byte {exc.start}") from None
