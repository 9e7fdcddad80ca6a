"""The four-stage staircase filter applied at the sub-sink.

Stage order is fixed: priority (out-of-band severity) -> opinion
(plausibility + informativeness vs per-source history) -> review (neighbor
consensus) -> sentiment (symbolic rescue rule + linear classifier). Each
stage only ever shrinks its input; a dropped reading is annotated with the
stage that dropped it and never reappears.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from .core import (LABEL_DISCARD, LABEL_FORWARD, STAGE_OPINION, STAGE_PRIORITY,
                   STAGE_REVIEW, STAGE_SENTIMENT, SensorReading,
                   StageAnnotation, _atomic_write)
from .errors import EmptyTrainingSet, InvalidValue
from .topology import Topology, neighbors_in_round

N_FEATURES = 5
PERCEPTRON_EPOCHS = 100


@dataclass(frozen=True)
class PipelineConfig:
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

    @property
    def band_width(self) -> float:
        return self.band_hi - self.band_lo


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


def features(r: SensorReading, cfg: PipelineConfig) -> Tuple[float, ...]:
    a = r.annotations
    w = cfg.band_width
    return (a.priority_score, a.opinion_deviation / w, a.consensus_ratio,
            (r.value - cfg.band_lo) / w, 1.0)


def _annotate(r: SensorReading, drop_stage: Optional[str] = None, *,
              priority_score: Optional[float] = None,
              opinion_deviation: Optional[float] = None,
              consensus_ratio: Optional[float] = None,
              class_label: Optional[str] = None) -> SensorReading:
    """`r` with the given annotation scores and, when it is dropped, the
    stage that dropped it; built in one step, other annotations kept."""
    a = r.annotations
    return SensorReading(r.source, r.round, r.value, StageAnnotation(
        a.priority_score if priority_score is None else priority_score,
        a.opinion_deviation if opinion_deviation is None else opinion_deviation,
        a.consensus_ratio if consensus_ratio is None else consensus_ratio,
        a.class_label if class_label is None else class_label,
        a.drop_stage if drop_stage is None else drop_stage))


def priority_analysis(readings: Sequence[SensorReading], cfg: PipelineConfig):
    kept, dropped = [], []
    w = cfg.band_width
    for r in readings:
        score = max(0.0, (r.value - cfg.band_hi) / w, (cfg.band_lo - r.value) / w)
        if score >= cfg.theta_p:
            kept.append(_annotate(r, priority_score=score))
        else:
            dropped.append(_annotate(r, STAGE_PRIORITY, priority_score=score))
    return kept, dropped


def opinion_analysis(readings: Sequence[SensorReading],
                     history_index: Mapping[int, Sequence[float]],
                     cfg: PipelineConfig):
    kept, dropped = [], []
    for r in readings:
        if not cfg.range_lo <= r.value <= cfg.range_hi:
            # fails the fact check: physically implausible
            dropped.append(_annotate(r, STAGE_OPINION))
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
            kept.append(_annotate(r, opinion_deviation=deviation))
        else:
            dropped.append(_annotate(r, STAGE_OPINION,
                                     opinion_deviation=deviation))
    return kept, dropped


def review_analysis(readings: Sequence[SensorReading],
                    round_context: Sequence[SensorReading],
                    topology: Topology, cfg: PipelineConfig):
    by_source: Dict[int, List[float]] = {}
    for c in round_context:
        by_source.setdefault(c.source, []).append(c.value)
    kept, dropped = [], []
    for r in readings:
        peers = [v for s in neighbors_in_round(topology, r.source)
                 for v in by_source.get(s, ())]
        if peers:
            ratio = sum(1 for v in peers if abs(v - r.value) <= cfg.tau_r) / len(peers)
        else:
            ratio = 1.0  # sparse region: nobody to contradict the reading
        if ratio >= cfg.quorum_q:
            kept.append(_annotate(r, consensus_ratio=ratio))
        else:
            dropped.append(_annotate(r, STAGE_REVIEW, consensus_ratio=ratio))
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
                       model: Optional[ClassifierModel], cfg: PipelineConfig):
    kept, dropped = [], []
    for r in readings:
        if r.annotations.priority_score >= cfg.rescue_score:
            forward = True  # symbolic rescue overrides the learner
        elif model is not None:
            forward = model.decide(features(r, cfg))
        else:
            forward = False
        if forward:
            kept.append(_annotate(r, class_label=LABEL_FORWARD))
        else:
            dropped.append(_annotate(r, STAGE_SENTIMENT,
                                     class_label=LABEL_DISCARD))
    return kept, dropped


def run_pipeline(snapshot, round_context: Sequence[SensorReading],
                 topology: Topology, history_index: HistoryIndex,
                 cfg: PipelineConfig, model: Optional[ClassifierModel] = None):
    """Apply the four stages in order; returns (survivors, trace).

    Updates history_index with the values of forwarded readings only.
    """
    trace = StageTrace()
    current = list(snapshot.readings)

    kept, dropped = priority_analysis(current, cfg)
    trace.counts.append((STAGE_PRIORITY, len(current), len(kept)))
    trace.drops.extend((r.source, r.round, STAGE_PRIORITY) for r in dropped)
    current = kept

    kept, dropped = opinion_analysis(current, history_index, cfg)
    trace.counts.append((STAGE_OPINION, len(current), len(kept)))
    trace.drops.extend((r.source, r.round, STAGE_OPINION) for r in dropped)
    current = kept

    kept, dropped = review_analysis(current, round_context, topology, cfg)
    trace.counts.append((STAGE_REVIEW, len(current), len(kept)))
    trace.drops.extend((r.source, r.round, STAGE_REVIEW) for r in dropped)
    current = kept
    trace.sentiment_input = tuple(current)

    kept, dropped = sentiment_classify(current, model, cfg)
    trace.counts.append((STAGE_SENTIMENT, len(current), len(kept)))
    trace.drops.extend((r.source, r.round, STAGE_SENTIMENT) for r in dropped)

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
