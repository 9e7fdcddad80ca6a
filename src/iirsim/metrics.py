"""Per-run measurement accumulation and stable serialization."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from .core import STAGES, kahan_add

if TYPE_CHECKING:
    from .pipeline import StageTrace


@dataclass
class MetricsReport:
    # The compared fields, in declaration order, are the CSV columns in
    # order and the JSON field set.
    mode: str = "framework"
    rounds_completed: int = 0
    readings_generated: int = 0
    readings_after_dedup: int = 0
    readings_after_priority: int = 0
    readings_after_opinion: int = 0
    readings_after_review: int = 0
    readings_after_sentiment: int = 0
    readings_delivered_to_sink: int = 0
    readings_lost_in_transit: int = 0
    total_bits_transmitted: int = 0
    total_energy_consumed_j: float = 0.0
    per_node_energy_remaining_j: Dict[int, float] = field(default_factory=dict)
    first_node_death_round: Optional[int] = None
    network_death_round: Optional[int] = None
    selectivity: Optional[float] = None
    mean_hop_count: Optional[float] = None
    event_recall: Optional[float] = None
    false_forward_rate: Optional[float] = None
    # run-internal accumulators, excluded from serialization and equality
    event_readings_generated: int = field(default=0, compare=False)
    event_readings_delivered: int = field(default=0, compare=False)
    delivered_hops_total: int = field(default=0, compare=False)
    # Kahan compensation of total_energy_consumed_j; only add_energy uses it
    _energy_comp: float = field(default=0.0, compare=False, repr=False)

    def add_energy(self, hop_energies: Iterable[float]) -> None:
        """Kahan-add billed hop energies, in the given order, to
        total_energy_consumed_j: hop energies are tiny against the total."""
        self.total_energy_consumed_j, self._energy_comp = kahan_add(
            self.total_energy_consumed_j, self._energy_comp, hop_energies)


COLUMNS = [f.name for f in fields(MetricsReport) if f.compare]
_STAGE_FIELD = {s: f"readings_after_{s}" for s in STAGES}


def record(report: MetricsReport, item: "StageTrace") -> MetricsReport:
    """Fold one round's stage trace into the stage counts."""
    for stage, _, n_out in item.counts:
        setattr(report, _STAGE_FIELD[stage],
                getattr(report, _STAGE_FIELD[stage]) + n_out)
    return report


def finalize(report: MetricsReport) -> MetricsReport:
    """Compute derived ratios; impossible divisions stay undefined (None).

    Baseline does no in-network filtering: every dedup and stage count is
    the generated count, which keeps the telescoping invariant comparable
    across modes.
    """
    if report.mode == "baseline":
        for f in ("readings_after_dedup", *_STAGE_FIELD.values()):
            setattr(report, f, report.readings_generated)
    g = report.readings_generated
    d = report.readings_delivered_to_sink
    report.selectivity = d / g if g > 0 else None
    report.mean_hop_count = report.delivered_hops_total / d if d > 0 else None
    eg = report.event_readings_generated
    report.event_recall = report.event_readings_delivered / eg if eg > 0 else None
    report.false_forward_rate = ((d - report.event_readings_delivered) / d
                                 if d > 0 else None)
    return report


def _csv_cell(name: str, value) -> str:
    if name == "per_node_energy_remaining_j":
        return ";".join(f"{n}:{value[n]!r}" for n in sorted(value))
    if value is None:
        return "none" if name.endswith("_round") else "undefined"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv(report: MetricsReport) -> str:
    header = ",".join(COLUMNS)
    row = ",".join(_csv_cell(c, getattr(report, c)) for c in COLUMNS)
    return header + "\n" + row + "\n"


def to_json(report: MetricsReport) -> str:
    obj = {}
    for c in COLUMNS:
        v = getattr(report, c)
        if c == "per_node_energy_remaining_j":
            v = {str(n): v[n] for n in sorted(v)}
        obj[c] = v
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def serialize(report: MetricsReport, fmt: str) -> str:
    if fmt == "csv":
        return to_csv(report)
    if fmt == "json":
        return to_json(report)
    raise ValueError(f"unknown format {fmt!r}")
