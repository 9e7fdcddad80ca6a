"""Workloads, the timed run and the report checks of the iirsim benchmark.

Every run goes through the public API only: the scenario text is generated
from the seed, then `config.parse_scenario` -> `engine.run` ->
`metrics.serialize(report, "json")` -> sha256 of the serialized report.
Importing this module puts the checkout's `src/` first on `sys.path`, so the
benchmark always measures the sources next to it, never an installed copy.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "iirsim" / "__init__.py").is_file():
    raise ImportError(f"iirsim sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from iirsim import config, engine, metrics  # noqa: E402

if Path(engine.__file__).resolve().parent != SRC / "iirsim":
    raise ImportError(f"iirsim was imported from {engine.__file__}, not {SRC}")

DEFAULT_SEED = 1

STAGE_FIELDS = ("readings_generated", "readings_after_dedup",
                "readings_after_priority", "readings_after_opinion",
                "readings_after_review", "readings_after_sentiment")


@dataclass(frozen=True)
class Workload:
    name: str
    keys: Dict[str, object]  # scenario keys except `seed` and `rounds`
    rounds: int
    pinned_sha256: str       # report digest at DEFAULT_SEED

    def scenario_text(self, seed: int, rounds: Optional[int] = None) -> str:
        """The scenario file the program gets; each key appears once."""
        keys = dict(self.keys, rounds=self.rounds if rounds is None else rounds,
                    seed=seed)
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


WORKLOADS = {w.name: w for w in (
    # The forward-everything hot path: `send_along` plus `EnergyLedger`
    # billing is ~85 % of the rounds. It is also the largest graph, so set-up
    # holds the per-sensor sink BFS and the O(n^2) adjacency build.
    # `pipeline` and `aggregation` do no work here. No node dies.
    Workload(
        name="baseline-1600",
        keys={"mode": "baseline", "node_count": 1600},
        rounds=50,
        pinned_sha256="59c9f51031d16b629c1326b1a84f7c22329a39d12feaf29715a93f30be711fbd",
    ),
    # The paper's filter at the 400-node rung. The sub-sink dies near round
    # 170, which forces a full route recompute; collector routing (S x A BFS,
    # once at set-up and once after the death) is ~75 % of the run. The
    # priority stage drops ~99 % of readings.
    Workload(
        name="framework-400-drain",
        keys={"mode": "framework", "node_count": 400, "initial_energy_j": 0.2},
        rounds=200,
        pinned_sha256="a09c0e13420275878dc4391b926ccf60654656c9200f5d1d5d4d1979356b6744",
    ),
    # The reference 100-node grid with every threshold at 0 and no deaths:
    # each reading runs all four stages and rides all three legs. The
    # staircase is ~40 % and `send_along` ~40 %, routing is negligible. The
    # only workload where opinion, review and sentiment see more than 1 % of
    # the readings.
    Workload(
        name="framework-open-100",
        keys={"mode": "framework", "node_count": 100, "theta_p": 0,
              "delta_o": 0, "quorum_q": 0, "rescue_score": 0,
              "initial_energy_j": 5.0},
        rounds=2000,
        pinned_sha256="be20b7592e539f0379e6dac4b88a48b8dc415a3229c8364fc054bd03d7f4e3ce",
    ),
)}


@dataclass
class RunResult:
    seconds: float
    text: str        # serialized JSON report
    digest: str
    report: metrics.MetricsReport


def run_once(scenario_text: str) -> RunResult:
    """One whole run, from parse to digest, timed with the host clock."""
    t0 = time.perf_counter()
    scenario = config.parse_scenario(scenario_text)
    report = engine.run(scenario).report
    text = metrics.serialize(report, "json")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return RunResult(time.perf_counter() - t0, text, digest, report)


def check_report(text: str, initial_energy_j: float,
                 pinned_sha256: Optional[str] = None) -> List[str]:
    """Problems found in one serialized report; empty when it passes.

    Checks energy conservation (the reported total equals the fsum of the
    per-node drain, to rel 1e-12), that no stage count exceeds the one before
    it, and, when given, the pinned digest.
    """
    problems = []
    if pinned_sha256 is not None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != pinned_sha256:
            problems.append(f"digest {digest} != pinned {pinned_sha256}")
    try:
        obj = json.loads(text)
        total = obj["total_energy_consumed_j"]
        drain = math.fsum(initial_energy_j - e
                          for e in obj["per_node_energy_remaining_j"].values())
        counts = [obj[f] for f in STAGE_FIELDS]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    if not math.isclose(total, drain, rel_tol=1e-12):
        problems.append(f"energy: total {total!r} != per-node drain {drain!r}")
    for (f_hi, hi), (f_lo, lo) in zip(zip(STAGE_FIELDS, counts),
                                      zip(STAGE_FIELDS[1:], counts[1:])):
        if lo > hi:
            problems.append(f"stage counts grow: {f_lo}={lo} > {f_hi}={hi}")
    return problems
