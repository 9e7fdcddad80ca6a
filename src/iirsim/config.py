"""Scenario definition: the `key = value` experiment file format and defaults."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Tuple, Union

from .energy import RadioParams
from .errors import InvalidScenario, InvalidValue, MalformedLine, UnknownKey
from .pipeline import PipelineConfig

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
    sub_sink: Union[int, str, None] = "auto"   # node id, "auto", or "none"
    aggregator_ids: Tuple[int, ...] = ()
    aggregator_every: int = 11
    # run
    rounds: int = 200
    seed: int = 1
    mode: str = "framework"
    # radio / energy
    e_elec: float = 50e-9
    e_amp: float = 100e-12
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

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(**{f.name: getattr(self, f.name)
                                 for f in fields(PipelineConfig)})

    def radio(self) -> RadioParams:
        return RadioParams(e_elec=self.e_elec, e_amp=self.e_amp)

    def validate(self) -> None:
        for key, parse in _PARSERS.items():
            if parse is float and not math.isfinite(getattr(self, key)):
                raise InvalidScenario(f"{key} must be finite")
        if self.node_count < 2:
            raise InvalidScenario("node_count must be at least 2")
        if self.rounds < 0:
            raise InvalidScenario("rounds must be non-negative")
        if self.mode not in MODES:
            raise InvalidScenario(f"mode must be one of {MODES}")
        if self.placement not in PLACEMENTS:
            raise InvalidScenario(f"placement must be one of {PLACEMENTS}")
        if self.comm_radius <= 0:
            raise InvalidScenario("comm_radius must be positive")
        if self.grid_spacing <= 0:
            raise InvalidScenario("grid_spacing must be positive")
        if self.initial_energy_j <= 0:
            raise InvalidScenario("initial_energy_j must be positive")
        if not (self.e_elec > 0 and self.e_amp > 0):
            raise InvalidScenario("radio constants must be positive")
        if not self.band_lo < self.band_hi:
            raise InvalidScenario("band_lo must be below band_hi")
        if not (self.range_lo <= self.band_lo and self.band_hi <= self.range_hi):
            raise InvalidScenario("nominal band must lie inside the physical range")
        for key in ("theta_p", "delta_o", "tau_r", "dedup_eps", "rescue_score",
                    "noise_sigma", "event_rate", "event_radius"):
            if getattr(self, key) < 0:
                raise InvalidScenario(f"{key} must be non-negative")
        if not 0 <= self.quorum_q <= 1:
            raise InvalidScenario("quorum_q must be in [0, 1]")
        if self.aggregator_every < 0:
            raise InvalidScenario("aggregator_every must be non-negative")
        if self.window_w < 1:
            raise InvalidScenario("window_w must be positive")
        if self.batch_cap < 1:
            raise InvalidScenario("batch_cap must be positive")
        if self.event_duration < 1:
            raise InvalidScenario("event_duration must be positive")
        if self.drift_period <= 0:
            raise InvalidScenario("drift_period must be positive")


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


_PARSERS = {
    "node_count": int, "placement": _choice(PLACEMENTS), "grid_spacing": float,
    "area_size": float, "comm_radius": float,
    "sink_id": int, "sub_sink": _parse_sub_sink,
    "aggregator_ids": _parse_id_list, "aggregator_every": int,
    "rounds": int, "seed": int, "mode": _choice(MODES),
    "e_elec": float, "e_amp": float, "initial_energy_j": float,
    "field_base": float, "drift_amplitude": float, "drift_period": float,
    "noise_sigma": float,
    "event_rate": float, "event_radius": float, "event_magnitude": float,
    "event_duration": int,
    "dedup_enabled": _parse_bool, "dedup_eps": float,
    "band_lo": float, "band_hi": float, "theta_p": float, "window_w": int,
    "delta_o": float, "range_lo": float, "range_hi": float, "tau_r": float,
    "quorum_q": float, "rescue_score": float,
    "batch_cap": int,
}


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
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise InvalidScenario(f"scenario file {path!r} is not UTF-8: "
                              f"{exc.reason} at byte {exc.start}") from None
    return parse_scenario(text)


def with_overrides(sc: ScenarioConfig, **overrides) -> ScenarioConfig:
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(sc, **overrides) if overrides else sc
