"""The four-stage staircase filter applied at the sub-sink.

Stage order is fixed: priority (out-of-band severity) -> opinion
(plausibility + informativeness vs per-source history) -> review (neighbor
consensus) -> sentiment (symbolic rescue rule + linear classifier). Each
stage returns (kept, dropped) and only ever shrinks its input: a kept reading
is a copy of the input reading with that stage's score set, and a dropped one
is the input reading itself and never reappears. The copy is built by
`core.make_reading`, at about 0.6 of the cost of `SensorReading(...)` and a
third of `_replace`: a run makes one copy per kept reading per stage.
`run_pipeline` records each drop once, with its stage, in `StageTrace.drops`.

The thresholds are the scenario's staircase keys: every stage reads them
from the `ScenarioConfig` it is given as `cfg`.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from operator import mul
from typing import (Deque, Dict, List, Mapping, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from .core import (LABEL_DISCARD, LABEL_FORWARD, STAGE_OPINION, STAGE_PRIORITY,
                   STAGE_REVIEW, STAGE_SENTIMENT, SensorReading, _atomic_write,
                   _read_text, fold_sum, make_reading)
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
        return fold_sum(map(mul, self.weights, x)) > 0


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
    w, lo, hi, theta = cfg.band_width, cfg.band_lo, cfg.band_hi, cfg.theta_p
    for r in readings:
        source, rnd, value, _, deviation, ratio = r
        score = max(0.0, (value - hi) / w, (lo - value) / w)
        if score >= theta:
            kept.append(make_reading((source, rnd, value, score, deviation,
                                      ratio)))
        else:
            dropped.append(r)
    return kept, dropped


def opinion_analysis(readings: Sequence[SensorReading],
                     history_index: Mapping[int, Sequence[float]],
                     cfg: "ScenarioConfig"):
    kept, dropped = [], []
    lo, hi, delta_o = cfg.range_lo, cfg.range_hi, cfg.delta_o
    history = history_index.get
    for r in readings:
        source, rnd, value, score, _, ratio = r
        if not lo <= value <= hi:
            # fails the fact check: physically implausible
            dropped.append(r)
            continue
        hist = history(source)
        if hist:
            deviation = abs(value - fold_sum(hist) / len(hist))
            ok = deviation >= delta_o
        else:
            deviation = cfg.band_width  # cold start always passes
            ok = True
        if ok:
            kept.append(make_reading((source, rnd, value, score, deviation,
                                      ratio)))
        else:
            dropped.append(r)
    return kept, dropped


def review_analysis(readings: Sequence[SensorReading],
                    round_context: Sequence[SensorReading],
                    topology: Topology, cfg: "ScenarioConfig"):
    by_source: Dict[int, List[float]] = {}
    for c in round_context:
        by_source.setdefault(c.source, []).append(c.value)
    heard = topology.alive.intersection(by_source)  # alive, with a reading
    adjacency = topology.adjacency
    tau_r, quorum_q = cfg.tau_r, cfg.quorum_q
    kept, dropped = [], []
    for r in readings:
        source, rnd, value, score, deviation, _ = r
        n = close = 0  # neighbour readings, and those within tau_r
        for s in heard.intersection(adjacency[source]):
            values = by_source[s]
            n += len(values)
            for v in values:
                if abs(v - value) <= tau_r:
                    close += 1
        # sparse region: nobody to contradict the reading
        ratio = close / n if n else 1.0
        if ratio >= quorum_q:
            kept.append(make_reading((source, rnd, value, score, deviation,
                                      ratio)))
        else:
            dropped.append(r)
    return kept, dropped


def train_classifier(
        examples: Sequence[Tuple[Sequence[float], str]]) -> ClassifierModel:
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
    for _ in range(PERCEPTRON_EPOCHS):
        updated = False
        for x, label in examples:
            y = 1.0 if label == LABEL_FORWARD else -1.0
            pred = 1.0 if fold_sum(map(mul, w, x)) > 0 else -1.0
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

    `round_context` is what review compares each reading with: the round's
    readings that reached the filtering node, `snapshot.readings` in a run.
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
        if dropped:
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
    text = _read_text(path, "model", InvalidValue)
    weights = []
    for lineno, line in enumerate(text.split("\n"), 1):
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
