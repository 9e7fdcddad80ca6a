"""The four-stage staircase filter applied at the sub-sink.

Stage order is fixed: priority (out-of-band severity) -> opinion
(plausibility + informativeness vs per-source history) -> review (neighbor
consensus) -> sentiment (symbolic rescue rule + linear classifier). Each
stage returns (kept, dropped) and only ever shrinks its input: a kept reading
is the input reading with that stage's score set via `_replace`, a dropped
one is the input reading itself and never reappears. `run_pipeline` records
each drop once, with its stage, in `StageTrace.drops`.

The thresholds are the scenario's staircase keys: every stage reads them
from the `ScenarioConfig` it is given as `cfg`.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import (Deque, Dict, List, Mapping, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from .core import (LABEL_DISCARD, LABEL_FORWARD, STAGE_OPINION, STAGE_PRIORITY,
                   STAGE_REVIEW, STAGE_SENTIMENT, SensorReading, _atomic_write)
from .errors import EmptyTrainingSet, InvalidValue
from .topology import Topology

if TYPE_CHECKING:
    from .config import ScenarioConfig

N_FEATURES = 5
PERCEPTRON_EPOCHS = 100


@dataclass(frozen=True)
class ClassifierModel:
    weights: Tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} weights")

    def decide(self, x: Sequence[float]) -> bool:
        # Strict inequality: the all-zero model discards everything.
        return sum(w * xi for w, xi in zip(self.weights, x)) > 0


@dataclass
class StageTrace:
    counts: List[Tuple[str, int, int]] = field(default_factory=list)
    drops: List[Tuple[int, int, str]] = field(default_factory=list)
    sentiment_input: Tuple[SensorReading, ...] = ()


HistoryIndex = Dict[int, Deque[float]]


def features(r: SensorReading, cfg: "ScenarioConfig") -> Tuple[float, ...]:
    w = cfg.band_width
    return (r.priority_score, r.opinion_deviation / w, r.consensus_ratio,
            (r.value - cfg.band_lo) / w, 1.0)


def priority_analysis(readings: Sequence[SensorReading],
                      cfg: "ScenarioConfig"):
    kept, dropped = [], []
    w = cfg.band_width
    for r in readings:
        score = max(0.0, (r.value - cfg.band_hi) / w, (cfg.band_lo - r.value) / w)
        if score >= cfg.theta_p:
            kept.append(r._replace(priority_score=score))
        else:
            dropped.append(r)
    return kept, dropped


def opinion_analysis(readings: Sequence[SensorReading],
                     history_index: Mapping[int, Sequence[float]],
                     cfg: "ScenarioConfig"):
    kept, dropped = [], []
    for r in readings:
        if not cfg.range_lo <= r.value <= cfg.range_hi:
            # fails the fact check: physically implausible
            dropped.append(r)
            continue
        hist = history_index.get(r.source)
        if hist:
            predicted = sum(hist) / len(hist)
            deviation = abs(r.value - predicted)
            ok = deviation >= cfg.delta_o
        else:
            deviation = cfg.band_width  # cold start always passes
            ok = True
        if ok:
            kept.append(r._replace(opinion_deviation=deviation))
        else:
            dropped.append(r)
    return kept, dropped


def review_analysis(readings: Sequence[SensorReading],
                    round_context: Sequence[SensorReading],
                    topology: Topology, cfg: "ScenarioConfig"):
    by_source: Dict[int, List[float]] = {}
    for c in round_context:
        by_source.setdefault(c.source, []).append(c.value)
    adjacency, alive = topology.adjacency, topology.alive
    kept, dropped = [], []
    for r in readings:
        peers = [v for s in adjacency[r.source] if s in alive
                 for v in by_source.get(s, ())]
        if peers:
            ratio = sum(1 for v in peers if abs(v - r.value) <= cfg.tau_r) / len(peers)
        else:
            ratio = 1.0  # sparse region: nobody to contradict the reading
        if ratio >= cfg.quorum_q:
            kept.append(r._replace(consensus_ratio=ratio))
        else:
            dropped.append(r)
    return kept, dropped


def train_classifier(examples: Sequence[Tuple[Sequence[float], str]],
                     epochs: int = PERCEPTRON_EPOCHS) -> ClassifierModel:
    """Classic perceptron: zero init, unit rate, fixed example order,
    stop at the epoch cap or the first update-free epoch."""
    if not examples:
        raise EmptyTrainingSet("no training examples")
    for x, label in examples:
        if len(x) != N_FEATURES:
            raise ValueError(f"feature vector must have {N_FEATURES} entries")
        if label not in (LABEL_FORWARD, LABEL_DISCARD):
            raise ValueError(f"unknown label {label!r}")
    w = [0.0] * N_FEATURES
    for _ in range(epochs):
        updated = False
        for x, label in examples:
            y = 1.0 if label == LABEL_FORWARD else -1.0
            pred = 1.0 if sum(wi * xi for wi, xi in zip(w, x)) > 0 else -1.0
            if pred != y:
                for i in range(N_FEATURES):
                    w[i] += y * x[i]
                updated = True
        if not updated:
            break
    return ClassifierModel(weights=tuple(w))


def training_accuracy(model: ClassifierModel,
                      examples: Sequence[Tuple[Sequence[float], str]]) -> float:
    if not examples:
        raise EmptyTrainingSet("no training examples")
    hits = sum(1 for x, label in examples
               if (LABEL_FORWARD if model.decide(x) else LABEL_DISCARD) == label)
    return hits / len(examples)


def sentiment_classify(readings: Sequence[SensorReading],
                       model: Optional[ClassifierModel],
                       cfg: "ScenarioConfig"):
    kept, dropped = [], []
    for r in readings:
        if r.priority_score >= cfg.rescue_score:
            forward = True  # symbolic rescue overrides the learner
        elif model is not None:
            forward = model.decide(features(r, cfg))
        else:
            forward = False
        (kept if forward else dropped).append(r)
    return kept, dropped


def run_pipeline(snapshot, round_context: Sequence[SensorReading],
                 topology: Topology, history_index: HistoryIndex,
                 cfg: "ScenarioConfig",
                 model: Optional[ClassifierModel] = None):
    """Apply the four stages in order; returns (survivors, trace).

    Updates history_index with the values of forwarded readings only.
    """
    trace = StageTrace()
    current = list(snapshot.readings)
    # built per call, so a stage replaced on this module is the one that runs
    for stage, apply, args in (
            (STAGE_PRIORITY, priority_analysis, (cfg,)),
            (STAGE_OPINION, opinion_analysis, (history_index, cfg)),
            (STAGE_REVIEW, review_analysis, (round_context, topology, cfg)),
            (STAGE_SENTIMENT, sentiment_classify, (model, cfg))):
        if stage == STAGE_SENTIMENT:
            trace.sentiment_input = tuple(current)
        kept, dropped = apply(current, *args)
        trace.counts.append((stage, len(current), len(kept)))
        trace.drops.extend((r.source, r.round, stage) for r in dropped)
        current = kept

    for r in kept:
        dq = history_index.get(r.source)
        if dq is None:
            dq = deque(maxlen=cfg.window_w)
            history_index[r.source] = dq
        dq.append(r.value)
    return kept, trace


def save_model(model: ClassifierModel, path: str) -> None:
    _atomic_write(path, "".join(f"{w!r}\n" for w in model.weights))


def load_model(path: str) -> ClassifierModel:
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError as exc:
        raise InvalidValue(f"model file {path!r} is not UTF-8: "
                           f"{exc.reason} at byte {exc.start}") from None
    weights = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            weight = float(line)
        except ValueError:
            weight = math.nan  # rejected below with the non-finite weights
        if not math.isfinite(weight):
            raise InvalidValue(f"model file line {lineno}: invalid "
                               f"weight {line.strip()!r}")
        weights.append(weight)
    if len(weights) != N_FEATURES:
        raise InvalidValue(f"model file has {len(weights)} weights, "
                           f"expected {N_FEATURES}")
    return ClassifierModel(weights=tuple(weights))
