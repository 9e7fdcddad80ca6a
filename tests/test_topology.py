import math
import random
import sys
from collections import Counter, deque

import pytest

from iirsim import engine, topology
from iirsim.config import ScenarioConfig
from iirsim.core import NodeRole
from iirsim.errors import DisconnectedTopology, InvalidScenario, NoRoute
from iirsim.topology import (Node, Topology, build_topology,
                             recompute_routes, shortest_hop_path,
                             sink_reachable)
from test_engine import draining, left_fold


def line_scenario(**kw):
    base = dict(node_count=4, placement="line", grid_spacing=10.0,
                comm_radius=10.0, sink_id=3, sub_sink=2, aggregator_ids=(1,),
                mode="framework")
    base.update(kw)
    return ScenarioConfig(**base)


def graph_topology(n, edges, sink, roles=None, alive=None):
    """Hand-built topology for routing tests; positions are irrelevant."""
    adjacency = {i: set() for i in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    nodes = [Node(i, (roles or {}).get(i, NodeRole.SENSOR if i != sink
                                       else NodeRole.SINK), (float(i), 0.0))
             for i in range(n)]
    return Topology(nodes=nodes, comm_radius=1.0, adjacency=adjacency,
                    alive=set(range(n)) if alive is None else set(alive),
                    sink=sink, sub_sink=None, aggregators=())


def bfs_oracle(adjacency, alive, src, dst):
    """Independent plain BFS hop distance; None when unreachable."""
    if src not in alive or dst not in alive:
        return None
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adjacency[u]:
            if v in alive and v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist.get(dst)


class TestBuild:
    def test_two_node_single_link(self):
        sc = ScenarioConfig(node_count=2, placement="line", grid_spacing=5.0,
                            comm_radius=10.0, sink_id=1, sub_sink=None,
                            aggregator_every=0, mode="baseline")
        t = build_topology(sc)
        assert t.adjacency[0] == [1] and t.adjacency[1] == [0]
        recompute_routes(t, "baseline")
        assert t.routes[0] == [0, 1]

    def test_line_chain_route_matches_bfs(self):
        sc = line_scenario(mode="baseline", sub_sink=None, aggregator_ids=())
        t = build_topology(sc)
        recompute_routes(t, "baseline")
        assert t.routes[0] == [0, 1, 2, 3]
        assert bfs_oracle(t.adjacency, t.alive, 0, 3) == 3

    def test_line_out_of_radius_disconnected(self):
        sc = line_scenario(comm_radius=5.0)
        with pytest.raises(DisconnectedTopology):
            build_topology(sc)

    def test_deterministic_same_seed(self):
        sc = ScenarioConfig(node_count=30, placement="uniform", seed=9,
                            comm_radius=40.0)
        a = build_topology(sc)
        b = build_topology(sc)
        assert [n.pos for n in a.nodes] == [n.pos for n in b.nodes]
        assert a.adjacency == b.adjacency

    def test_grid_reference_roles(self):
        t = build_topology(ScenarioConfig())
        assert t.nodes[t.sink].role is NodeRole.SINK
        assert t.sub_sink is not None
        assert len(t.aggregators) == 9  # reference layout: 9 aggregators

    def test_adjacency_symmetric_without_self_loops(self):
        sc = ScenarioConfig(node_count=25, placement="uniform", comm_radius=40.0,
                            sub_sink="auto", aggregator_every=5, seed=3)
        t = build_topology(sc)
        for a in range(25):
            links = t.adjacency[a]
            assert all(b < c for b, c in zip(links, links[1:]))  # sorted ids
            for b in links:
                assert b != a and a in t.adjacency[b]

    def test_neighbour_lists_take_at_most_200_bytes_a_node(self):
        # one list per node on the 1600-node default grid (mean degree 7.7)
        # measures 120 B a node on CPython 3.11, and a set 727 B
        t = build_topology(ScenarioConfig(node_count=1600))
        size = sum(sys.getsizeof(links) for links in t.adjacency.values())
        assert size / 1600 <= 200


# What build_topology may reject after validate() has passed: only what
# the layout decides
LAYOUT_MESSAGES = ("layout too large", "aggregator overlaps sink or sub-sink",
                   "framework mode requires at least one aggregator")


class TestLayoutRules:
    @pytest.mark.parametrize("sc,message", [
        (line_scenario(aggregator_ids=(3,)), "aggregator overlaps"),
        # 44 is the reference grid's auto sub-sink
        (ScenarioConfig(aggregator_ids=(44,)), "aggregator overlaps"),
        (ScenarioConfig(aggregator_every=101), "at least one aggregator"),
    ], ids=["aggregator_is_sink", "aggregator_is_auto_sub_sink",
            "stride_past_every_node"])
    def test_rejected_when_the_layout_is_built(self, sc, message):
        sc.validate()
        with pytest.raises(InvalidScenario, match=message):
            build_topology(sc)

    def test_validate_owns_every_rule_the_layout_does_not_decide(self):
        rng = random.Random(17)
        outcomes = {"invalid": 0, "built": 0, "layout": 0}
        for _ in range(300):
            n = rng.randint(2, 12)
            sc = ScenarioConfig(
                node_count=n, placement=rng.choice(("grid", "line", "uniform")),
                comm_radius=1000.0,  # every layout is connected
                sink_id=rng.randint(-2, n + 2),
                sub_sink=rng.choice(("auto", None, "none", "foo",
                                     rng.randint(-2, n + 2))),
                aggregator_ids=tuple(rng.choices(range(-2, n + 3),
                                                 k=rng.randint(0, 2))),
                aggregator_every=rng.randint(0, n + 1),
                mode=rng.choice(("baseline", "framework")),
                seed=rng.randrange(1000))
            try:
                sc.validate()
            except InvalidScenario:
                outcomes["invalid"] += 1
                continue
            try:
                t = build_topology(sc)
                outcomes["built"] += 1
            except InvalidScenario as exc:
                assert str(exc).startswith(LAYOUT_MESSAGES), (sc, exc)
                outcomes["layout"] += 1
                continue
            roles = {t.sink, t.sub_sink, *t.aggregators} - {None}
            assert roles <= set(range(n)), sc
            if sc.mode == "framework":
                assert t.sub_sink is not None and t.aggregators, sc
        assert all(outcomes.values()), outcomes


def per_id_roles(scenario, positions):
    """Role assignment as one membership test per id, with the aggregators
    held in a tuple: the reference for `topology._assign_roles`."""
    n = scenario.node_count
    sink = scenario.sink_id
    sub_sink = scenario.sub_sink
    if sub_sink == "auto":
        cx = left_fold(p[0] for p in positions) / n
        cy = left_fold(p[1] for p in positions) / n
        sub_sink = min((i for i in range(n) if i != sink),
                       key=lambda i: ((positions[i][0] - cx) ** 2
                                      + (positions[i][1] - cy) ** 2, i))
    if scenario.aggregator_ids:
        aggregators = tuple(sorted(scenario.aggregator_ids))
    elif scenario.aggregator_every > 0:
        k = scenario.aggregator_every
        aggregators = tuple(i for i in range(k - 1, n, k)
                            if i != sink and i != sub_sink)
    else:
        aggregators = ()
    if {sink, sub_sink} & set(aggregators):
        raise InvalidScenario("aggregator overlaps sink or sub-sink")
    roles = {}
    for i in range(n):
        if i == sink:
            roles[i] = NodeRole.SINK
        elif i == sub_sink:
            roles[i] = NodeRole.SUB_SINK
        elif i in aggregators:
            roles[i] = NodeRole.AGGREGATOR
        else:
            roles[i] = NodeRole.SENSOR
    return roles, sink, sub_sink, aggregators


class TestRoleOracle:
    def test_matches_per_id_reference(self):
        rng = random.Random(31)
        seen = dict.fromkeys(("auto", "none", "id", "explicit", "stride",
                              "overlap"), 0)
        for _ in range(400):
            n = rng.randint(2, 60)
            explicit = rng.random() < 0.4
            sc = ScenarioConfig(
                node_count=n, placement=rng.choice(("grid", "line", "uniform")),
                sink_id=rng.randrange(n),
                sub_sink=rng.choice(("auto", None, rng.randrange(n))),
                aggregator_ids=(tuple(rng.sample(range(n), rng.randint(1, 4)))
                                if explicit and n >= 4 else ()),
                aggregator_every=rng.randint(0, n + 1),
                mode="baseline", seed=rng.randrange(1000))
            try:
                sc.validate()
            except InvalidScenario:
                continue
            positions = topology._positions(sc)
            try:
                expected = per_id_roles(sc, positions)
            except InvalidScenario:
                with pytest.raises(InvalidScenario, match="aggregator overlaps"):
                    topology._assign_roles(sc, positions)
                seen["overlap"] += 1
                continue
            roles, *rest = topology._assign_roles(sc, positions)
            assert (dict(enumerate(roles)), *rest) == expected, sc
            seen["none" if sc.sub_sink is None else
                 "auto" if sc.sub_sink == "auto" else "id"] += 1
            seen["explicit" if sc.aggregator_ids else "stride"] += 1
        assert all(seen.values()), seen


class TestRouting:
    def test_sink_self_route(self):
        t = graph_topology(2, [(0, 1)], sink=1)
        recompute_routes(t, "framework")
        assert t.routes[1] == [1]

    def test_lowest_next_hop_tie_break(self):
        # two equal-length paths from 0 to 9, via 3 or via 7
        t = graph_topology(10, [(0, 3), (0, 7), (3, 9), (7, 9)], sink=9)
        assert shortest_hop_path(t, 0, 9) == [0, 3, 9]

    def test_dead_node_excluded_from_route(self):
        t = graph_topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)], sink=3)
        t.alive.discard(1)
        assert shortest_hop_path(t, 0, 3) == [0, 2, 3]

    def test_no_route_when_cut(self):
        t = graph_topology(4, [(0, 1), (2, 3)], sink=3)
        with pytest.raises(NoRoute):
            shortest_hop_path(t, 0, 3)

    def test_random_graphs_match_bfs_oracle(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randrange(2, 9)
            edges = set()
            # random spanning tree first, then extra edges
            ids = list(range(n))
            rng.shuffle(ids)
            for i in range(1, n):
                edges.add((min(ids[i], rng.choice(ids[:i])),
                           max(ids[i], rng.choice(ids[:i]))))
            edges = {(a, b) for a, b in edges if a != b}
            for i in range(1, n):
                edges.add(tuple(sorted((ids[i], ids[i - 1]))))
            for _ in range(rng.randrange(0, n)):
                a, b = rng.sample(range(n), 2)
                edges.add(tuple(sorted((a, b))))
            sink = rng.randrange(n)
            t = graph_topology(n, edges, sink=sink)
            for src in range(n):
                expected = bfs_oracle(t.adjacency, t.alive, src, sink)
                assert expected is not None
                path = shortest_hop_path(t, src, sink)
                assert len(path) - 1 == expected
                assert path[0] == src and path[-1] == sink
                # loop-free
                assert len(set(path)) == len(path)

    def test_sensor_routes_to_nearest_aggregator(self):
        roles = {2: NodeRole.AGGREGATOR, 4: NodeRole.AGGREGATOR,
                 5: NodeRole.SINK}
        t = graph_topology(6, [(0, 1), (1, 2), (0, 4), (4, 5), (2, 5)],
                           sink=5, roles=roles)
        t.aggregators = (2, 4)
        recompute_routes(t, "framework")
        assert t.routes[0] == [0, 4]


class TestRouteTable:
    def test_framework_routes_chain_through_roles(self):
        sc = line_scenario()
        t = build_topology(sc)
        recompute_routes(t, "framework")
        assert t.routes[0] == [0, 1]
        assert t.routes[1] == [1, 2]
        assert t.routes[2] == [2, 3]

    def test_recompute_after_death(self):
        t = graph_topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)], sink=3)
        recompute_routes(t, "baseline")
        assert t.routes[0] == [0, 1, 3]
        t.alive.discard(1)
        recompute_routes(t, "baseline")
        assert t.routes[0] == [0, 2, 3]


def reference_path(adjacency, alive, src, dst):
    """Lowest-id minimum-hop path built from independent BFS distances."""
    path = [src]
    while path[-1] != dst:
        left = bfs_oracle(adjacency, alive, path[-1], dst) - 1
        path.append(min(v for v in adjacency[path[-1]]
                        if bfs_oracle(adjacency, alive, v, dst) == left))
    return path


def reference_routes(t, mode):
    """Route table built node by node: one BFS per aggregator per sensor
    to pick the collector, then a minimum-hop path to it."""
    routes = {}
    for node in t.nodes:
        n, role = node.id, node.role
        if n not in t.alive:
            continue
        if mode == "baseline":
            if role is not NodeRole.SENSOR:
                continue
            dst = t.sink
        elif role is NodeRole.SINK:
            dst = n
        elif role is NodeRole.SUB_SINK:
            dst = t.sink
        elif role is NodeRole.AGGREGATOR:
            dst = t.sub_sink
        else:
            dst, best = None, None
            for a in t.aggregators:  # first in this order wins on equal hops
                d = bfs_oracle(t.adjacency, t.alive, n, a)
                if d is not None and (best is None or d < best):
                    dst, best = a, d
        if dst is not None and bfs_oracle(t.adjacency, t.alive, n, dst) is not None:
            routes[n] = reference_path(t.adjacency, t.alive, n, dst)
    return routes


def random_role_topology(rng):
    """Random connected graph with a sink, an optional sub-sink and a few
    aggregators listed in random order."""
    n = rng.randrange(4, 16)
    edges = {tuple(sorted((i, rng.randrange(i)))) for i in range(1, n)}
    for _ in range(rng.randrange(0, 2 * n)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    ids = rng.sample(range(n), n)
    sink, sub_sink = ids[0], (ids[1] if rng.random() < 0.8 else None)
    aggregators = tuple(ids[2:2 + rng.randrange(1, 4)])
    roles = {sink: NodeRole.SINK, **{a: NodeRole.AGGREGATOR for a in aggregators}}
    if sub_sink is not None:
        roles[sub_sink] = NodeRole.SUB_SINK
    t = graph_topology(n, edges, sink=sink, roles=roles)
    t.sub_sink, t.aggregators = sub_sink, aggregators
    return t


def equal_hop_aggregators(t, n):
    """True when sensor n has two alive aggregators at its minimum hops."""
    hops = [bfs_oracle(t.adjacency, t.alive, n, a) for a in t.aggregators]
    hops = [h for h in hops if h is not None]
    return len(hops) > 1 and hops.count(min(hops)) > 1


class TestRouteTableOracle:
    def test_matches_per_sensor_reference_under_kills(self):
        rng = random.Random(2024)
        seen = dict.fromkeys(("dead_sub_sink", "dead_aggregator",
                              "no_sub_sink", "equal_hops", "sink_unreachable"),
                             0)
        for _ in range(150):
            t = random_role_topology(rng)
            while True:
                hops = {n: bfs_oracle(t.adjacency, t.alive, n, t.sink)
                        for n in t.alive}
                hops = {n: h for n, h in hops.items() if h is not None}
                reachable = any(t.nodes[n].role is NodeRole.SENSOR for n in hops)
                for mode in ("baseline", "framework"):
                    recompute_routes(t, mode)
                    assert t.routes == reference_routes(t, mode)
                    assert t.sink_hops == hops
                    assert sink_reachable(t) == reachable
                seen["sink_unreachable"] += not reachable
                seen["dead_sub_sink"] += (t.sub_sink is not None
                                          and t.sub_sink not in t.alive)
                seen["dead_aggregator"] += any(a not in t.alive
                                               for a in t.aggregators)
                seen["no_sub_sink"] += t.sub_sink is None
                seen["equal_hops"] += any(
                    equal_hop_aggregators(t, n) for n in t.alive
                    if t.nodes[n].role is NodeRole.SENSOR)
                killable = sorted(t.alive - {t.sink})
                if not killable:
                    break
                t.alive -= set(rng.sample(killable,
                                          rng.randrange(1, min(3, len(killable)) + 1)))
        assert all(seen.values()), seen

    def test_equal_hops_take_first_listed_aggregator(self):
        # sensor 0 is two hops from aggregators 4 and 2
        roles = {2: NodeRole.AGGREGATOR, 4: NodeRole.AGGREGATOR,
                 5: NodeRole.SINK}
        t = graph_topology(6, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 5),
                               (4, 5)], sink=5, roles=roles)
        for order, expected in (((2, 4), [0, 1, 2]), ((4, 2), [0, 3, 4])):
            t.aggregators = order
            recompute_routes(t, "framework")
            assert t.routes[0] == expected

    @pytest.mark.parametrize("kw", [
        dict(node_count=1600, aggregator_every=41),
        dict(node_count=400, aggregator_every=21),
        dict(node_count=300, placement="uniform", comm_radius=25.0,
             aggregator_every=7),
    ], ids=["grid_1600", "grid_400", "uniform_radius_25"])
    def test_neighbour_order_does_not_change_routes(self, kw):
        t = build_topology(ScenarioConfig(**kw))
        shuffled = build_topology(ScenarioConfig(**kw))
        rng = random.Random(7)
        for links in shuffled.adjacency.values():
            rng.shuffle(links)
        assert shuffled.adjacency != t.adjacency
        for _ in range(3):
            for mode in ("baseline", "framework"):
                recompute_routes(t, mode)
                recompute_routes(shuffled, mode)
                assert shuffled.routes == t.routes
                assert shuffled.sink_hops == t.sink_hops
            dead = set(rng.sample(sorted(t.alive - {t.sink}),
                                  len(t.nodes) // 20))
            t.alive -= dead
            shuffled.alive -= dead

    def test_reference_grid_matches_reference(self):
        # the reference grid, then a uniform layout where a third of the
        # nodes are aggregators, so many sensors have equal-hop collectors
        for kw in (dict(node_count=49, aggregator_every=8),
                   dict(node_count=64, placement="uniform", aggregator_every=3,
                        comm_radius=25.0)):
            t = build_topology(ScenarioConfig(**kw))
            rng = random.Random(5)
            for _ in range(3):
                for mode in ("baseline", "framework"):
                    recompute_routes(t, mode)
                    assert t.routes == reference_routes(t, mode)
                t.alive -= set(rng.sample(sorted(t.alive - {t.sink}), 5))


def brute_force_adjacency(pos, r):
    return {i: [j for j in range(len(pos)) if j != i
                and math.hypot(pos[i][0] - pos[j][0],
                               pos[i][1] - pos[j][1]) <= r]
            for i in range(len(pos))}


def scattered(n, lo, hi, seed):
    rng = random.Random(seed)
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


class TestAdjacencyOracle:
    @pytest.mark.parametrize("kw", [
        dict(grid_spacing=10.0, comm_radius=10.0),
        dict(node_count=30, placement="line", grid_spacing=4.0,
             comm_radius=9.0, sub_sink=None, aggregator_every=0,
             mode="baseline"),
        dict(node_count=200, placement="uniform", area_size=123.4,
             comm_radius=25.0, aggregator_every=9),
        dict(node_count=144, grid_spacing=5.0, comm_radius=7.3),
        dict(node_count=150, placement="uniform", comm_radius=7.3,
             grid_spacing=3.0, aggregator_every=13),
    ], ids=["grid_boundary", "line", "uniform_area", "grid_radius_7_3",
            "uniform_radius_7_3"])
    def test_cell_list_equals_all_pairs(self, kw):
        t = build_topology(ScenarioConfig(**kw, seed=4))
        assert t.adjacency == brute_force_adjacency(
            [node.pos for node in t.nodes], t.comm_radius)

    @pytest.mark.parametrize("pos,r", [
        ([(0.0, 0.0), (1.0, 0.0), (math.nan, 0.0), (2.0, 0.0)], 1.0),
        ([(0.0, 0.0), (math.inf, 0.0), (math.inf, 1.0), (3.0, 0.0)], math.inf),
        ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], math.nan),
        ([(1e17 + 16.0 * i, 0.0) for i in range(6)], 16.0),
        ([(1e300, 0.0), (1e300, 1e-300), (0.0, 0.0)], 1e-300),
        (scattered(150, -60.0, 10.0, seed=8)
         + [(-5.0 * i - 0.5, -5.0 * j - 0.5) for i in range(8)
            for j in range(8)], 7.3),
        # 3-4-5: exactly r apart, the second node one cell right and one
        # down; the third is just past r
        ([(4.0, 1.0), (7.0, -3.0), (7.0, -3.0000001)], 5.0),
        (scattered(40, 0.0, 3.0, seed=9), 5.0),
    ], ids=["nan_position", "inf_positions_inf_radius", "nan_radius",
            "far_from_origin", "quotient_overflows", "negative_coordinates",
            "exactly_r_across_the_down_diagonal", "every_node_in_one_cell"])
    def test_unbinnable_or_far_positions_equal_all_pairs(self, pos, r):
        assert topology._adjacency(pos, r) == brute_force_adjacency(pos, r)


class TestRouteRecomputeCost:
    @pytest.fixture
    def bfs_calls(self, monkeypatch):
        calls = []
        original = topology.hop_distances

        def counted(t, sources):
            calls.append(sources)
            return original(t, sources)
        monkeypatch.setattr(topology, "hop_distances", counted)
        return calls

    @pytest.mark.parametrize("mode", ["baseline", "framework"])
    def test_one_bfs_per_target(self, bfs_calls, mode):
        # each field of the mode runs exactly once: at build, and again
        # after the sub-sink and an aggregator die
        t = build_topology(ScenarioConfig(mode=mode))
        fields = Counter([(t.sink,)] if mode == "baseline" else
                         [(t.sink,), (t.sub_sink,), t.aggregators])
        assert Counter(map(tuple, bfs_calls)) == fields
        t.alive -= {t.sub_sink, t.aggregators[0]}
        bfs_calls.clear()
        recompute_routes(t, mode)
        assert Counter(map(tuple, bfs_calls)) == fields

    @pytest.mark.parametrize("mode", ["baseline", "framework"])
    def test_routes_are_never_changed_in_place(self, mode):
        # `EnergyLedger.carry_leg` keeps a plan while the route lists it
        # was given are the same objects, so a route list, once handed out,
        # must keep its hops
        t = build_topology(ScenarioConfig(node_count=64, aggregator_every=7,
                                          mode=mode))
        rng = random.Random(64)
        before = {n: route[:] for n, route in t.routes.items()}
        saved = [(route, route[:]) for route in t.routes.values()]
        for _ in range(2):
            t.alive -= set(rng.sample(sorted(t.alive - {t.sink}), 4))
            recompute_routes(t, mode)
            saved += [(route, route[:]) for route in t.routes.values()]
        # the deaths moved the routes of some nodes that still have one
        assert any(t.routes[n] != route for n, route in before.items()
                   if n in t.routes)
        assert all(route == copy for route, copy in saved)

    def test_framework_hashes_the_aggregators_a_fixed_number_of_times(self):
        hashes = []

        class CountedTuple(tuple):
            def __hash__(self):
                hashes.append(1)
                return super().__hash__()
        counts = []
        for n in (100, 400):
            t = build_topology(ScenarioConfig(node_count=n))
            t.aggregators = CountedTuple(t.aggregators)
            hashes.clear()
            recompute_routes(t, "framework")
            assert len(t.routes) == n
            counts.append(len(hashes))
        assert counts[0] == counts[1] <= 3, counts

    @pytest.mark.parametrize("mode", ["baseline", "framework"])
    def test_every_bfs_of_a_run_is_in_recompute_routes(self, monkeypatch, mode):
        recompute, bfs = topology.recompute_routes, topology.hop_distances
        depth, inside, outside = [0], [], []

        def routing(t, mode):
            depth[0] += 1
            try:
                return recompute(t, mode)
            finally:
                depth[0] -= 1

        def counted(t, sources):
            (inside if depth[0] else outside).append(sources)
            return bfs(t, sources)
        monkeypatch.setattr(topology, "recompute_routes", routing)
        monkeypatch.setattr(topology, "hop_distances", counted)
        engine.run(draining(mode))
        assert inside and not outside
