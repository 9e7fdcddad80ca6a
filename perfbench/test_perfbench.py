"""Tests of the benchmark's own code.

Run with: python3 -m pytest perfbench -q
"""
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracing
from iirsim import dissemination

SMALL = harness.Workload(name="small", keys={"mode": "framework"}, rounds=40,
                         pinned_sha256="")


def _originals():
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, _ in tracing.TARGETS]


def _traced_run(text):
    tracer = tracing.Tracer()
    with tracer.installed():
        result = harness.run_once(text)
    return tracer, result


def test_scenario_text_is_generated_from_the_seed():
    w = harness.WORKLOADS["framework-400-drain"]
    text = w.scenario_text(7)
    assert text == w.scenario_text(7) != w.scenario_text(8)
    keys = [line.split("=")[0].strip() for line in text.splitlines()]
    assert len(keys) == len(set(keys))
    sc = harness.config.parse_scenario(text)
    assert (sc.seed, sc.rounds, sc.node_count) == (7, 200, 400)
    assert harness.config.parse_scenario(w.scenario_text(7, rounds=0)).rounds == 0


def test_wrappers_restore_the_originals():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
    _traced_run(SMALL.scenario_text(1))
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


def test_traced_run_gives_the_untraced_digest_and_reconciles():
    text = SMALL.scenario_text(3)
    tracer, traced = _traced_run(text)
    assert traced.digest == harness.run_once(text).digest
    assert tracer.reconcile(traced.report) == []
    assert tracer.counters["pipeline.opinion_analysis.in"] > 0
    assert [s[1] for s in tracer.spans[:2]] == ["config.parse_scenario",
                                                "engine.run"]


def test_reconcile_shows_a_call_path_that_skips_a_wrapper():
    original = vars(dissemination)["send_along"]
    tracer = tracing.Tracer()
    with tracer.installed():
        dissemination.send_along = original  # hops no longer traced
        result = harness.run_once(SMALL.scenario_text(1))
    assert any("dissemination.bits" in p
               for p in tracer.reconcile(result.report))


def test_self_times_sum_to_engine_run_within_the_trace_overhead():
    text = SMALL.scenario_text(2)
    untraced = statistics.median(harness.run_once(text).seconds
                                 for _ in range(3))
    for tracer, result in (_traced_run(text) for _ in range(3)):
        overhead = result.seconds - untraced
        assert overhead > 0
        outside = {"config.parse_scenario", "metrics.serialize"}
        under_run = sum(a[2] for (name, _), a in tracer.aggregates.items()
                        if name not in outside)
        run_span = sum(a[1] for (name, _), a in tracer.aggregates.items()
                       if name == "engine.run")
        assert under_run == pytest.approx(run_span, abs=1e-6)
        assert abs(under_run - untraced) <= overhead
        m = tracing.layer_metrics(tracer)
        assert sum(v for k, v in m.items() if k.endswith(".s")) <= result.seconds


def test_a_tampered_report_fails_the_check():
    text = SMALL.scenario_text(1)
    result = harness.run_once(text)
    energy = harness.config.parse_scenario(text).initial_energy_j
    assert harness.check_report(result.text, energy, result.digest) == []

    rep = result.report
    tampered_energy = result.text.replace(
        f'"total_energy_consumed_j":{rep.total_energy_consumed_j!r}',
        f'"total_energy_consumed_j":{rep.total_energy_consumed_j * 0.999!r}')
    tampered_stage = result.text.replace(
        f'"readings_after_review":{rep.readings_after_review}',
        f'"readings_after_review":{rep.readings_after_opinion + 1}')
    for bad in (tampered_energy, tampered_stage):
        assert bad != result.text
        assert harness.check_report(bad, energy) != []
        assert any("pinned" in p
                   for p in harness.check_report(bad, energy, result.digest))
    assert harness.check_report("{}", energy) != []


def test_run_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "harness.py", "tracing.py", "rss_child.py"):
        shutil.copy(Path(harness.__file__).parent / name, bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "baseline-1600",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
