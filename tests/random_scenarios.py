"""Seeded random small scenarios for whole-run property tests.

`random_scenario(rng)` draws every key from `rng` alone, so a seeded
`random.Random` gives the same list of scenarios on every run.
"""
import random

from iirsim.config import MODES, PLACEMENTS, ScenarioConfig

# every reading passes every stage of the staircase
OPEN_THRESHOLDS = dict(theta_p=0.0, delta_o=0.0, quorum_q=0.0,
                       rescue_score=0.0)


def random_scenario(rng: random.Random) -> ScenarioConfig:
    """A small scenario: 2-40 nodes in any placement and either mode,
    `batch_cap` 1-16, dedup on or off, events in some draws, open filter
    thresholds in about a quarter of them, and batteries small enough for
    nodes to die, some in the middle of a route, in about half.

    Some radii leave the layout disconnected, and some draws are rejected
    by `build_topology` (a framework layout with no aggregator), so a
    caller catches `SimError`.
    """
    keys = dict(
        node_count=rng.randint(2, 40),
        placement=rng.choice(PLACEMENTS),
        mode=rng.choice(MODES),
        comm_radius=rng.uniform(8.0, 25.0),
        aggregator_every=rng.randint(2, 6),
        rounds=rng.randint(1, 30),
        seed=rng.randrange(2 ** 32),
        batch_cap=rng.randint(1, 16),
        dedup_enabled=rng.random() < 0.5,
        dedup_eps=rng.choice((0.0, 0.1, 0.5)),
        event_rate=rng.choice((0.0, 0.2, 0.8)),
        initial_energy_j=rng.choice((2e-5, 5e-5, 1e-4, 0.5)),
    )
    if rng.random() < 0.25:
        keys.update(OPEN_THRESHOLDS)
    return ScenarioConfig(**keys)
