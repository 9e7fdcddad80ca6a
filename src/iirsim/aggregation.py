"""Aggregator-side collection and redundancy removal.

Two rules, applied in order: exact duplicates (same source, round, value)
collapse to one, then a reading is suppressed if it sits within eps of the
last value this aggregator forwarded for the same source. Suppression state
lives outside these functions (`deduplicate` is pure); callers commit the
forwarded values with `committed_values` once the round's output is final.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .core import SensorReading, canonical_order
from .errors import StaleReading


@dataclass(frozen=True)
class RoundSnapshot:
    round: int
    readings: Tuple[SensorReading, ...]
    redundancy_removed: int = 0


def collect_round(incoming: Sequence[SensorReading], round_no: int) -> RoundSnapshot:
    for r in incoming:
        if r.round != round_no:
            raise StaleReading(
                f"reading from node {r.source} has round {r.round}, "
                f"expected {round_no}")
    return RoundSnapshot(round=round_no,
                         readings=tuple(canonical_order(incoming)))


def deduplicate(s: RoundSnapshot, eps: float,
                last_forwarded: Optional[Dict[int, float]] = None) -> RoundSnapshot:
    """Drop exact duplicates, then eps-suppress against the last forwarded
    value per source. Pure: `last_forwarded` is read, never written."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    last_forwarded = last_forwarded or {}
    seen = set()
    retained = []
    removed = 0
    for r in s.readings:
        ident = (r.source, r.round, r.value)
        if ident in seen:
            removed += 1
            continue
        seen.add(ident)
        last = last_forwarded.get(r.source)
        if last is not None and abs(r.value - last) <= eps:
            removed += 1
            continue
        retained.append(r)
    return RoundSnapshot(round=s.round, readings=tuple(retained),
                         redundancy_removed=s.redundancy_removed + removed)


def committed_values(s: RoundSnapshot) -> Dict[int, float]:
    """Per-source value to remember as 'last forwarded' after this round."""
    out: Dict[int, float] = {}
    for r in s.readings:  # canonical order: later entries win per source
        out[r.source] = r.value
    return out
