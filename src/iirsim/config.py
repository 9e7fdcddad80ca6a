"""Scenario definition: the `key = value` experiment file format and defaults."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Tuple, Union

from .core import _read_text
from .energy import E_AMP_DEFAULT, E_ELEC_DEFAULT, RadioParams
from .errors import InvalidScenario, InvalidValue, MalformedLine, UnknownKey

MODES = ("baseline", "framework")
PLACEMENTS = ("grid", "uniform", "line")


@dataclass(frozen=True)
class ScenarioConfig:
    # layout
    node_count: int = 100
    placement: str = "grid"
    grid_spacing: float = 10.0
    area_size: float = 0.0          # 0 -> side * grid_spacing (uniform placement)
    comm_radius: float = 15.0
    # roles
    sink_id: int = 0
    sub_sink: Union[int, str, None] = "auto"   # node id, "auto", or None
    aggregator_ids: Tuple[int, ...] = ()
    aggregator_every: int = 11
    # run
    rounds: int = 200
    seed: int = 1
    mode: str = "framework"
    # radio / energy
    e_elec: float = E_ELEC_DEFAULT
    e_amp: float = E_AMP_DEFAULT
    initial_energy_j: float = 0.5
    # sensed field
    field_base: float = 25.0
    drift_amplitude: float = 2.0
    drift_period: float = 50.0
    noise_sigma: float = 0.5
    # injected events (ground truth)
    event_rate: float = 0.1
    event_radius: float = 20.0
    event_magnitude: float = 20.0
    event_duration: int = 5
    # aggregation
    dedup_enabled: bool = True
    dedup_eps: float = 0.1
    # staircase filter
    band_lo: float = 20.0
    band_hi: float = 30.0
    theta_p: float = 0.1
    window_w: int = 4
    delta_o: float = 0.5
    range_lo: float = -20.0
    range_hi: float = 70.0
    tau_r: float = 2.0
    quorum_q: float = 0.3
    rescue_score: float = 1.0
    # dissemination
    batch_cap: int = 16

    @property
    def band_width(self) -> float:
        return self.band_hi - self.band_lo

    def radio(self) -> RadioParams:
        return RadioParams(e_elec=self.e_elec, e_amp=self.e_amp)

    def validate(self) -> None:
        for key, parse in _PARSERS.items():
            value = getattr(self, key)
            # bool is an int subclass, but True is not a count or an id
            if parse is int and type(value) is not int:
                raise InvalidScenario(f"{key} must be an integer")
            # counts and ids reach C sizes (range, a deque's maxlen) and
            # floats (math.sqrt, the drift phase); the seed is only mixed
            if parse is int and key != "seed" and value > sys.maxsize:
                raise InvalidScenario(f"{key} must be at most {sys.maxsize}")
            if parse is float and not math.isfinite(value):
                raise InvalidScenario(f"{key} must be finite")
        if self.node_count < 2:
            raise InvalidScenario("node_count must be at least 2")
        if self.mode not in MODES:
            raise InvalidScenario(f"mode must be one of {MODES}")
        if self.placement not in PLACEMENTS:
            raise InvalidScenario(f"placement must be one of {PLACEMENTS}")
        for key in _POSITIVE:
            if getattr(self, key) <= 0:
                raise InvalidScenario(f"{key} must be positive")
        for key in _NON_NEGATIVE:
            if getattr(self, key) < 0:
                raise InvalidScenario(f"{key} must be non-negative")
        if not self.band_lo < self.band_hi:
            raise InvalidScenario("band_lo must be below band_hi")
        # the staircase divides by the band width, which must stay finite
        if not math.isfinite(self.band_width):
            raise InvalidScenario("band_hi - band_lo must be finite")
        if not (self.range_lo <= self.band_lo and self.band_hi <= self.range_hi):
            raise InvalidScenario("nominal band must lie inside the physical range")
        if not 0 <= self.quorum_q <= 1:
            raise InvalidScenario("quorum_q must be in [0, 1]")
        if len(set(self.aggregator_ids)) != len(self.aggregator_ids):
            raise InvalidScenario("aggregator_ids must not repeat an id")
        n, sink, sub = self.node_count, self.sink_id, self.sub_sink
        if not 0 <= sink < n:
            raise InvalidScenario("sink_id out of range")
        if sub not in ("auto", None) and type(sub) is not int:
            raise InvalidScenario("sub_sink must be a node id, 'auto' or None")
        if type(sub) is int and (not 0 <= sub < n or sub == sink):
            raise InvalidScenario("sub_sink conflicts with sink or is out of range")
        if sub is None and self.mode == "framework":
            raise InvalidScenario("framework mode requires a sub-sink")
        for a in self.aggregator_ids:
            if type(a) is not int:
                raise InvalidScenario(f"aggregator id {a!r} is not an integer")
            if not 0 <= a < n:
                raise InvalidScenario(f"aggregator id {a} out of range")
        # GroundTruth.advance takes the sine of this phase, which must stay
        # finite
        if not math.isfinite(2.0 * math.pi * max(self.rounds - 1, 0)
                             / self.drift_period):
            raise InvalidScenario("drift_period is too small for the rounds")


# The sign rule of each numeric key; a key in neither tuple has a rule of
# its own in validate.
_POSITIVE = ("comm_radius", "grid_spacing", "initial_energy_j", "e_elec",
             "e_amp", "drift_period", "window_w", "batch_cap", "event_duration")
_NON_NEGATIVE = ("rounds", "aggregator_every", "theta_p", "delta_o", "tau_r",
                 "dedup_eps", "rescue_score", "noise_sigma", "event_rate",
                 "event_radius", "area_size")


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(raw)


def _parse_sub_sink(raw: str):
    if raw in ("auto", "none"):
        return None if raw == "none" else "auto"
    return int(raw)


def _parse_id_list(raw: str) -> Tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(part.strip()) for part in raw.split(","))


def _choice(options):
    def parse(raw):
        if raw not in options:
            raise ValueError(raw)
        return raw
    return parse


# Each key's parser: by the field's type, except for keys with their own
# format. A field of any other type fails here, at import.
_KEY_PARSERS = {"placement": _choice(PLACEMENTS), "mode": _choice(MODES),
                "sub_sink": _parse_sub_sink, "aggregator_ids": _parse_id_list}
_TYPE_PARSERS = {"int": int, "float": float, "bool": _parse_bool}
_PARSERS = {f.name: _KEY_PARSERS.get(f.name) or _TYPE_PARSERS[f.type]
            for f in fields(ScenarioConfig)}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse the line-based `key = value` scenario format.

    `#` starts a comment; unknown and repeated keys are rejected; missing
    keys take the dataclass defaults.
    """
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedLine(f"line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _PARSERS:
            raise UnknownKey(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise InvalidValue(f"line {lineno}: key '{key}' is set twice")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError:
            raise InvalidValue(
                f"line {lineno}: invalid value {raw!r} for key '{key}'") from None
    return ScenarioConfig(**values)


def load_scenario(path: str) -> ScenarioConfig:
    return parse_scenario(_read_text(path, "scenario", InvalidScenario))
