"""Aggregator-side collection and redundancy removal.

Two rules, applied in order: exact duplicates (same source, round, value)
collapse to one, then a reading is suppressed if it sits within eps of the
last value this aggregator forwarded for the same source. Suppression state
lives outside these functions (`deduplicate` is pure); callers commit the
forwarded values with `committed_values` once the round's output is final.
"""
from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .core import SensorReading, canonical_order
from .errors import StaleReading


class RoundSnapshot(NamedTuple):
    round: int
    readings: Tuple[SensorReading, ...]


def collect_round(incoming: Sequence[SensorReading], round_no: int) -> RoundSnapshot:
    readings = canonical_order(incoming)
    # sorted by round first: the ends hold the lowest and the highest round
    if readings and not readings[0].round == readings[-1].round == round_no:
        stale = next(r for r in incoming if r.round != round_no)
        raise StaleReading(
            f"reading from node {stale.source} has round {stale.round}, "
            f"expected {round_no}")
    return RoundSnapshot(round=round_no, readings=tuple(readings))


def deduplicate(s: RoundSnapshot, eps: float,
                last_forwarded: Optional[Dict[int, float]] = None) -> RoundSnapshot:
    """Drop exact duplicates, then eps-suppress against the last forwarded
    value per source. Pure: `last_forwarded` is read, never written."""
    last_value = (last_forwarded or {}).get
    seen, retained = set(), []
    seen_add, keep = seen.add, retained.append
    for r in s.readings:
        ident = r[:3]  # (source, round, value)
        if ident in seen:
            continue
        seen_add(ident)
        last = last_value(r.source)
        if last is not None and abs(r.value - last) <= eps:
            continue
        keep(r)
    return RoundSnapshot(round=s.round, readings=tuple(retained))


def committed_values(s: RoundSnapshot) -> Dict[int, float]:
    """Per-source value to remember as 'last forwarded' after this round."""
    out: Dict[int, float] = {}
    for r in s.readings:  # canonical order: later entries win per source
        out[r.source] = r.value
    return out
