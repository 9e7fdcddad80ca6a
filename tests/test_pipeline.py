import dataclasses
import os
import random
from collections import Counter, deque

import pytest

from iirsim.aggregation import RoundSnapshot
from iirsim.config import ScenarioConfig
from iirsim.core import (LABEL_DISCARD, LABEL_FORWARD, STAGES, NodeRole,
                         SensorReading, canonical_order)
from iirsim.errors import EmptyTrainingSet
from iirsim.pipeline import (ClassifierModel, features, load_model,
                             opinion_analysis, priority_analysis,
                             review_analysis, run_pipeline, save_model,
                             sentiment_classify, train_classifier,
                             training_accuracy)
from iirsim.topology import Node, Topology
from test_engine import left_fold

CFG = ScenarioConfig()  # band [20, 30], theta 0.1, delta 0.5, tau 2, quorum 0.3


def reading(source=0, rnd=0, value=25.0):
    return SensorReading(source=source, round=rnd, value=value)


def clique_topology(n):
    adjacency = {i: {j for j in range(n) if j != i} for i in range(n)}
    nodes = [Node(i, NodeRole.SENSOR, (float(i), 0.0)) for i in range(n)]
    return Topology(nodes=nodes, comm_radius=1e9, adjacency=adjacency,
                    alive=set(range(n)), sink=0, sub_sink=None, aggregators=())


class TestPriority:
    def test_in_band_scores_zero_and_drops(self):
        r = reading(value=25.0)
        kept, dropped = priority_analysis([r], CFG)
        assert kept == []
        assert dropped == [r] and dropped[0] is r

    def test_above_band(self):
        kept, _ = priority_analysis([reading(value=35.0)], CFG)
        assert kept[0].priority_score == pytest.approx(0.5)

    def test_boundary_inclusive_below_band(self):
        kept, _ = priority_analysis([reading(value=19.0)], CFG)
        assert kept[0].priority_score == pytest.approx(0.1)


class TestOpinion:
    def test_cold_start_kept(self):
        kept, _ = opinion_analysis([reading(value=35.0)], {}, CFG)
        assert len(kept) == 1
        assert kept[0].opinion_deviation == CFG.band_width

    def test_uninformative_repeat_dropped(self):
        r = reading(value=25.0)
        kept, dropped = opinion_analysis([r], {0: [25.0]}, CFG)
        assert kept == []
        assert dropped == [r] and dropped[0] is r

    def test_deviation_from_history_mean(self):
        kept, _ = opinion_analysis([reading(value=28.0)], {0: [24.0, 26.0]}, CFG)
        assert kept[0].opinion_deviation == pytest.approx(3.0)

    def test_fact_check_out_of_range_dropped(self):
        r = reading(value=500.0)
        kept, dropped = opinion_analysis([r], {}, CFG)
        assert kept == []
        assert dropped == [r] and dropped[0] is r


def review_oracle(readings, round_context, topology, cfg):
    """The review stage as a list per reading: the context values of its
    alive neighbours, then the share of them within tau_r."""
    by_source = {}
    for c in round_context:
        by_source.setdefault(c.source, []).append(c.value)
    kept, dropped = [], []
    for r in readings:
        peers = [v for s in topology.adjacency[r.source]
                 if s in topology.alive for v in by_source.get(s, ())]
        if peers:
            ratio = sum(1 for v in peers
                        if abs(v - r.value) <= cfg.tau_r) / len(peers)
        else:
            ratio = 1.0
        if ratio >= cfg.quorum_q:
            kept.append(r._replace(consensus_ratio=ratio))
        else:
            dropped.append(r)
    return kept, dropped


class TestReview:
    def test_no_neighbors_sparse_default(self):
        t = clique_topology(1)
        kept, _ = review_analysis([reading(source=0)], [], t, CFG)
        assert kept[0].consensus_ratio == 1.0

    def test_all_peers_agree(self):
        t = clique_topology(5)
        context = [reading(source=i, value=25.5) for i in range(1, 5)]
        kept, _ = review_analysis([reading(source=0, value=25.0)], context, t, CFG)
        assert kept[0].consensus_ratio == 1.0

    def test_quorum_failure(self):
        t = clique_topology(4)
        context = [reading(source=1, value=40.0), reading(source=2, value=40.0),
                   reading(source=3, value=40.0)]
        r = reading(source=0, value=25.0)
        kept, dropped = review_analysis([r], context, t, CFG)
        assert kept == []
        assert dropped == [r] and dropped[0] is r

    def test_minority_agreement_meets_quorum(self):
        t = clique_topology(4)
        context = [reading(source=1, value=25.5), reading(source=2, value=40.0),
                   reading(source=3, value=40.0)]
        kept, _ = review_analysis([reading(source=0, value=25.0)],
                                  context, t, CFG)
        assert kept[0].consensus_ratio == pytest.approx(1 / 3)

    def test_dead_neighbor_reading_not_a_peer(self):
        t = clique_topology(3)
        t.alive.discard(2)
        context = [reading(source=1, value=25.5), reading(source=2, value=40.0)]
        kept, _ = review_analysis([reading(source=0, value=25.0)],
                                  context, t, CFG)
        assert kept[0].consensus_ratio == 1.0

    def test_matches_list_building_oracle(self):
        # sparse random graphs with dead nodes; context sources with up to
        # three values, on a 0.5 lattice so that some lie exactly tau_r away
        rng = random.Random(4242)
        seen = Counter()
        for _ in range(400):
            n = rng.randint(2, 12)
            p = rng.choice((0.15, 0.3, 0.5))
            adjacency = {i: set() for i in range(n)}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        adjacency[i].add(j)
                        adjacency[j].add(i)
            nodes = [Node(i, NodeRole.SENSOR, (float(i), 0.0))
                     for i in range(n)]
            alive = {i for i in range(n) if rng.random() < 0.8}
            t = Topology(nodes=nodes, comm_radius=1.0, adjacency=adjacency,
                         alive=alive, sink=0, sub_sink=None, aggregators=())
            context = [reading(source=s, value=rng.randrange(40, 60) / 2)
                       for s in rng.sample(range(n), rng.randint(0, n))
                       for _ in range(rng.choice((1, 1, 2, 3)))]
            rng.shuffle(context)
            readings = [reading(source=rng.randrange(n),
                                value=rng.randrange(40, 60) / 2)
                        for _ in range(rng.randint(0, 8))]
            cfg = ScenarioConfig(tau_r=rng.choice((0.0, 0.5, 1.0, 2.0)),
                                 quorum_q=rng.choice((0.0, 0.3, 0.5, 2 / 3,
                                                      1.0)))
            got = review_analysis(readings, context, t, cfg)
            assert got == review_oracle(readings, context, t, cfg)
            assert {id(d) for d in got[1]} <= {id(r) for r in readings}
            sources = Counter(c.source for c in context)
            seen["clique"] += all(len(adjacency[i]) == n - 1
                                  for i in range(n))
            seen["multi"] += max(sources.values(), default=0) >= 2
            for r in readings:
                heard = [s for s in adjacency[r.source] if s in sources]
                seen["dead"] += any(s not in alive for s in heard)
                seen["unheard"] += not heard
                seen["partial"] += 0 < len(got[0]) < len(readings)
        assert seen["clique"] < 400
        assert min(seen[k] for k in ("multi", "dead", "unheard",
                                     "partial")) >= 30, seen


class TestPerceptron:
    def test_single_example_learned(self):
        model = train_classifier([((1.0, 0.0, 0.0, 0.0, 1.0), LABEL_FORWARD)])
        assert model.decide((1.0, 0.0, 0.0, 0.0, 1.0))

    def test_separable_set_fully_learned(self):
        rng = random.Random(5)
        examples = []
        for _ in range(30):
            x = tuple(rng.uniform(-1, 1) for _ in range(4)) + (1.0,)
            label = LABEL_FORWARD if x[0] + 0.5 * x[1] > 0.2 else LABEL_DISCARD
            examples.append((x, label))
        model = train_classifier(examples)
        assert training_accuracy(model, examples) == 1.0

    def test_matches_manual_update_replay(self):
        rng = random.Random(6)
        examples = [(tuple(rng.choice([-1.0, 0.0, 1.0]) for _ in range(5)),
                     rng.choice([LABEL_FORWARD, LABEL_DISCARD]))
                    for _ in range(12)]
        # independent replay of the update rule
        w = [0.0] * 5
        for _ in range(100):
            changed = False
            for x, label in examples:
                y = 1.0 if label == LABEL_FORWARD else -1.0
                dot = left_fold(a * b for a, b in zip(w, x))
                if (1.0 if dot > 0 else -1.0) != y:
                    w = [wi + y * xi for wi, xi in zip(w, x)]
                    changed = True
            if not changed:
                break
        assert train_classifier(examples).weights == tuple(w)

    def test_inseparable_terminates_at_cap(self):
        examples = [((0.0, 0.0, 0.0, 0.0, 1.0), LABEL_FORWARD),
                    ((1.0, 1.0, 0.0, 0.0, 1.0), LABEL_DISCARD),
                    ((1.0, 0.0, 0.0, 0.0, 1.0), LABEL_DISCARD),
                    ((0.0, 1.0, 0.0, 0.0, 1.0), LABEL_FORWARD)]
        model = train_classifier(examples)  # must not raise or loop forever
        assert 0.0 <= training_accuracy(model, examples) <= 1.0

    def test_deterministic_in_example_order(self):
        examples = [((1.0, 0.0, 0.0, 0.0, 1.0), LABEL_FORWARD),
                    ((0.0, 1.0, 0.0, 0.0, 1.0), LABEL_DISCARD)]
        assert train_classifier(examples).weights == \
            train_classifier(examples).weights

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            train_classifier([])

    @pytest.mark.parametrize("call,error", [
        (lambda: training_accuracy(ClassifierModel((0.0,) * 5), []),
         EmptyTrainingSet),
        (lambda: ClassifierModel((1.0,) * 4), ValueError),
        (lambda: train_classifier([((1.0,) * 4, LABEL_FORWARD)]), ValueError),
        (lambda: train_classifier([((1.0,) * 5, "keep")]), ValueError),
    ], ids=["accuracy_of_nothing", "four_weights", "four_features",
            "unknown_label"])
    def test_malformed_input_rejected(self, call, error):
        with pytest.raises(error):
            call()

    def test_model_file_round_trip(self, tmp_path):
        model = ClassifierModel(weights=(0.1, -2.5, 3.0, 0.0, 1e-17))
        path = str(tmp_path / "model.txt")
        save_model(model, path)
        assert load_model(path) == model

    def test_failed_save_keeps_previous_model(self, tmp_path, monkeypatch):
        path = tmp_path / "model.txt"
        old = ClassifierModel(weights=(1.0, 2.0, 3.0, 4.0, 5.0))
        save_model(old, str(path))

        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            save_model(ClassifierModel(weights=(0.0,) * 5), str(path))
        assert load_model(str(path)) == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.txt"]


class TestSentiment:
    def annotated(self, score, value=25.0):
        return SensorReading(source=0, round=0, value=value,
                             priority_score=score)

    def test_symbolic_rescue(self):
        r = self.annotated(2.0)
        model = ClassifierModel(weights=(-10.0, 0.0, 0.0, 0.0, -10.0))
        kept, _ = sentiment_classify([r], model, CFG)
        assert kept == [r]

    def test_zero_model_discards(self):
        r = self.annotated(0.5)
        kept, dropped = sentiment_classify([r], ClassifierModel((0.0,) * 5), CFG)
        assert kept == []
        assert dropped == [r] and dropped[0] is r

    def test_positive_dot_product_kept(self):
        r = self.annotated(0.5)
        model = ClassifierModel(weights=(1.0, 0.0, 0.0, 0.0, -0.05))
        kept, _ = sentiment_classify([r], model, CFG)
        assert kept  # 0.5 - 0.05 = 0.45 > 0

    def test_rule_only_mode(self):
        kept, dropped = sentiment_classify(
            [self.annotated(1.5), self.annotated(0.5)], None, CFG)
        assert len(kept) == 1 and len(dropped) == 1


def random_pipeline_case(rng, n_nodes=8):
    t = clique_topology(n_nodes)
    readings = canonical_order([
        reading(source=rng.randrange(n_nodes), value=rng.uniform(0.0, 60.0))
        for _ in range(rng.randrange(0, 12))])
    snap = RoundSnapshot(round=0, readings=tuple(readings))
    history = {s: deque([rng.uniform(15.0, 45.0)
                         for _ in range(rng.randrange(0, 4))], maxlen=4)
               for s in range(n_nodes)}
    cfg = ScenarioConfig(theta_p=rng.choice([0.0, 0.1, 0.3]),
                         delta_o=rng.choice([0.0, 0.5, 2.0]),
                         quorum_q=rng.choice([0.0, 0.3, 0.8]),
                         rescue_score=rng.choice([0.2, 1.0]))
    model = ClassifierModel(tuple(rng.uniform(-1, 1) for _ in range(5)))
    return t, snap, history, cfg, model


class TestRunPipeline:
    def test_empty_snapshot(self):
        t = clique_topology(2)
        kept, trace = run_pipeline(RoundSnapshot(round=0, readings=()), [], t,
                                   {}, CFG)
        assert kept == []
        assert all(n_in == 0 and n_out == 0 for _, n_in, n_out in trace.counts)

    def test_fully_permissive_is_identity(self):
        t = clique_topology(4)
        cfg = ScenarioConfig(theta_p=0.0, delta_o=0.0, quorum_q=0.0,
                             rescue_score=0.0)
        readings = tuple(reading(source=i, value=20.0 + i) for i in range(4))
        snap = RoundSnapshot(round=0, readings=readings)
        kept, _ = run_pipeline(snap, list(readings), t, {}, cfg)
        assert [(r.source, r.value) for r in kept] == \
            [(r.source, r.value) for r in readings]

    def test_matches_stage_composition_oracle(self):
        rng = random.Random(77)
        for _ in range(150):
            t, snap, history, cfg, model = random_pipeline_case(rng)
            h1 = {s: deque(d, maxlen=cfg.window_w) for s, d in history.items()}
            h2 = {s: deque(d, maxlen=cfg.window_w) for s, d in history.items()}
            kept, trace = run_pipeline(snap, list(snap.readings), t, h1, cfg,
                                       model)
            # oracle: explicit composition of the four stage functions
            s1, _ = priority_analysis(list(snap.readings), cfg)
            s2, _ = opinion_analysis(s1, h2, cfg)
            s3, _ = review_analysis(s2, list(snap.readings), t, cfg)
            s4, _ = sentiment_classify(s3, model, cfg)
            assert kept == s4
            assert [c[2] for c in trace.counts] == \
                [len(s1), len(s2), len(s3), len(s4)]

    def test_contractive_telescoping_no_reappearance(self):
        rng = random.Random(78)
        for _ in range(150):
            t, snap, history, cfg, model = random_pipeline_case(rng)
            kept, trace = run_pipeline(snap, list(snap.readings), t, history,
                                       cfg, model)
            assert len(kept) <= len(snap.readings)
            prev_out = len(snap.readings)
            for (stage, n_in, n_out), name in zip(trace.counts, STAGES):
                assert stage == name
                assert n_in == prev_out and 0 <= n_out <= n_in
                prev_out = n_out
            # keys shared by several readings cannot be attributed to a
            # specific drop, so check only the unambiguous ones
            key_count = Counter(r.key() for r in snap.readings)
            dropped_keys = {(s, r) for s, r, _ in trace.drops}
            assert all(r.key() not in dropped_keys for r in kept
                       if key_count[r.key()] == 1)
            assert len(trace.drops) + len(kept) == len(snap.readings)

    def test_survivors_carry_every_score(self):
        t = clique_topology(3)
        readings = (reading(source=0, value=35.0), reading(source=1, value=35.5),
                    reading(source=2, value=50.0))
        snap = RoundSnapshot(round=0, readings=readings)
        _, trace = run_pipeline(snap, list(readings), t, {0: deque([31.0])},
                                ScenarioConfig(quorum_q=0.0))
        r = trace.sentiment_input[0]
        assert (r.source, r.priority_score, r.opinion_deviation,
                r.consensus_ratio) == (0, pytest.approx(0.5),
                                       pytest.approx(4.0), 0.5)

    def test_each_drop_recorded_once_with_its_stage(self):
        t = clique_topology(6)
        values = (25.0, 500.0, 40.0, 32.0, 32.5, 33.0)
        readings = tuple(reading(source=i, value=v) for i, v in enumerate(values))
        snap = RoundSnapshot(round=0, readings=readings)
        kept, trace = run_pipeline(snap, list(readings), t, {}, CFG)
        assert kept == []
        assert trace.drops == [(0, 0, "priority"), (1, 0, "opinion"),
                               (2, 0, "review"), (3, 0, "sentiment"),
                               (4, 0, "sentiment"), (5, 0, "sentiment")]

    def test_history_updated_with_forwarded_only(self):
        t = clique_topology(2)
        cfg = ScenarioConfig(theta_p=0.0, delta_o=0.0, quorum_q=0.0,
                             rescue_score=0.0)
        history = {}
        snap = RoundSnapshot(round=0, readings=(reading(source=1, value=40.0),))
        run_pipeline(snap, list(snap.readings), t, history, cfg)
        assert list(history[1]) == [40.0]
        # a dropped reading must not touch history
        strict = ScenarioConfig(theta_p=5.0)
        history2 = {}
        run_pipeline(snap, list(snap.readings), t, history2, strict)
        assert history2 == {}

    def test_stage_purity_repeatable(self):
        rng = random.Random(79)
        t, snap, history, cfg, model = random_pipeline_case(rng)
        h1 = {s: deque(d, maxlen=cfg.window_w) for s, d in history.items()}
        h2 = {s: deque(d, maxlen=cfg.window_w) for s, d in history.items()}
        out1 = run_pipeline(snap, list(snap.readings), t, h1, cfg, model)
        out2 = run_pipeline(snap, list(snap.readings), t, h2, cfg, model)
        assert out1[0] == out2[0]


class TestFeatures:
    def test_feature_vector_layout(self):
        r = SensorReading(source=0, round=0, value=25.0)
        x = features(r, CFG)
        assert len(x) == 5
        assert x[3] == pytest.approx(0.5)  # mid-band value
        assert x[4] == 1.0

    def test_affine_scaling_preserves_decisions(self):
        # scale band, thresholds, and values by a common factor: every
        # keep/drop decision must be unchanged
        rng = random.Random(80)
        factor = 3.0
        for _ in range(50):
            t, snap, history, cfg, model = random_pipeline_case(rng)
            scaled_cfg = dataclasses.replace(
                cfg, band_lo=cfg.band_lo * factor, band_hi=cfg.band_hi * factor,
                delta_o=cfg.delta_o * factor,
                range_lo=cfg.range_lo * factor, range_hi=cfg.range_hi * factor,
                tau_r=cfg.tau_r * factor)
            scaled_snap = RoundSnapshot(round=0, readings=tuple(
                SensorReading(r.source, r.round, r.value * factor)
                for r in snap.readings))
            h1 = {s: deque(d, maxlen=cfg.window_w) for s, d in history.items()}
            h2 = {s: deque([v * factor for v in d], maxlen=cfg.window_w)
                  for s, d in history.items()}
            kept, _ = run_pipeline(snap, list(snap.readings), t, h1, cfg, model)
            kept_scaled, _ = run_pipeline(scaled_snap,
                                          list(scaled_snap.readings), t, h2,
                                          scaled_cfg, model)
            assert [r.key() for r in kept] == [r.key() for r in kept_scaled]
