"""Shared simulator vocabulary: readings, roles, packets, canonical ordering."""
from __future__ import annotations

import os
import tempfile
from enum import Enum
from typing import NamedTuple, Sequence, Tuple

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


class Packet(NamedTuple):
    src: int
    dst: int
    bits: int


def packet_bits(n_readings: int) -> int:
    """Size of a packet carrying n_readings samples, in bits."""
    return HEADER_BITS + n_readings * READING_BITS


def canonical_order(readings: Sequence[SensorReading]) -> list:
    """Stable sort by (round, source, value); the determinism anchor for
    every operation that iterates over a round's readings."""
    return sorted(readings, key=lambda r: (r.round, r.source, r.value))


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
