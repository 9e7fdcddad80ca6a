"""Node placement, adjacency, and minimum-hop routing toward collectors."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import (Dict, List, NamedTuple, Optional, Sequence, Set, Tuple,
                    TYPE_CHECKING)

from .core import NodeRole, fold_sum, mix_seed
from .errors import DisconnectedTopology, InvalidScenario, NoRoute

if TYPE_CHECKING:
    from .config import ScenarioConfig

_PLACEMENT_SALT = 0x9051


class Node(NamedTuple):
    id: int
    role: NodeRole
    pos: Tuple[float, float]


@dataclass
class Topology:
    nodes: List[Node]
    comm_radius: float
    adjacency: Dict[int, List[int]]  # neighbour ids, sorted
    alive: Set[int]
    sink: int
    sub_sink: Optional[int]
    aggregators: Tuple[int, ...]
    routes: Dict[int, List[int]] = field(default_factory=dict)
    sink_hops: Dict[int, int] = field(default_factory=dict)

    def legs(self, route: Sequence[int]) -> List[Tuple[int, int, float]]:
        """Every hop of `route` as (sender, receiver, distance in metres)."""
        nodes, hypot = self.nodes, math.hypot
        legs = []
        a = route[0]
        ax, ay = nodes[a].pos
        for b in route[1:]:
            bx, by = nodes[b].pos
            legs.append((a, b, hypot(ax - bx, ay - by)))
            a, ax, ay = b, bx, by
        return legs

    def extent(self) -> Tuple[float, float]:
        return (max(n.pos[0] for n in self.nodes),
                max(n.pos[1] for n in self.nodes))

    def sensors(self) -> List[int]:
        return [n.id for n in self.nodes if n.role is NodeRole.SENSOR]


def _positions(scenario: "ScenarioConfig") -> List[Tuple[float, float]]:
    n = scenario.node_count
    s = scenario.grid_spacing
    if scenario.placement == "line":
        return [(i * s, 0.0) for i in range(n)]
    side = math.ceil(math.sqrt(n))
    if scenario.placement == "grid":
        return [((i % side) * s, (i // side) * s) for i in range(n)]
    extent = scenario.area_size if scenario.area_size > 0 else side * s
    rng = random.Random(mix_seed(scenario.seed, _PLACEMENT_SALT))
    return [(rng.uniform(0.0, extent), rng.uniform(0.0, extent)) for _ in range(n)]


def _assign_roles(scenario: "ScenarioConfig",
                  positions: List[Tuple[float, float]]):
    """Each node's role, by id, for a scenario that `validate` passed.
    Raises for an auto sub-sink whose distances overflow, and for an
    aggregator on the sink or on the sub-sink, which may be the auto one."""
    n = scenario.node_count
    sink = scenario.sink_id
    sub_sink = scenario.sub_sink
    if sub_sink == "auto":
        cx = fold_sum(p[0] for p in positions) / n
        cy = fold_sum(p[1] for p in positions) / n
        try:
            _, sub_sink = min(((x - cx) ** 2 + (y - cy) ** 2, i)
                              for i, (x, y) in enumerate(positions) if i != sink)
        except OverflowError:
            raise InvalidScenario(
                "layout too large: a squared distance overflows") from None

    if scenario.aggregator_ids:
        aggregators = tuple(sorted(scenario.aggregator_ids))
    elif scenario.aggregator_every > 0:
        # Every k-th node id; on a row-major grid a stride of side+1 puts
        # the aggregators on a diagonal, spreading them over the field.
        k = scenario.aggregator_every
        aggregators = tuple(i for i in range(k - 1, n, k)
                            if i != sink and i != sub_sink)
    else:
        aggregators = ()
    if {sink, sub_sink} & set(aggregators):
        raise InvalidScenario("aggregator overlaps sink or sub-sink")

    roles = [NodeRole.SENSOR] * n
    for a in aggregators:
        roles[a] = NodeRole.AGGREGATOR
    if sub_sink is not None:
        roles[sub_sink] = NodeRole.SUB_SINK
    roles[sink] = NodeRole.SINK
    return roles, sink, sub_sink, aggregators


def _adjacency(positions: List[Tuple[float, float]],
               r: float) -> Dict[int, List[int]]:
    """Each node's neighbours, the ids within `hypot <= r`, as a sorted
    list; pairs are tested only between neighbouring cells.

    Cells are `r` wide, widened by a relative 1e-9. Float division is
    monotone and exact on every integer a quotient can reach while two
    coordinates are within `r`, so coordinates two cells apart differ by
    more than `w`, and their rounded difference by more than `r`.
    Input that cannot be binned (NaN, infinity, an overflowing quotient)
    goes into one cell, where every pair is tested.
    """
    w = r * (1.0 + 1e-9)
    floor = math.floor
    cells: Dict[Tuple[int, int], List[Tuple[int, float, float]]] = {}
    try:
        for i, (x, y) in enumerate(positions):
            key = (floor(x / w), floor(y / w))
            cells.setdefault(key, []).append((i, x, y))
    except (ValueError, OverflowError):
        cells = {(0, 0): [(i, x, y) for i, (x, y) in enumerate(positions)]}
    adjacency: Dict[int, List[int]] = {i: [] for i in range(len(positions))}
    hypot = math.hypot
    # Each pair of neighbouring cells is visited once: a cell's members
    # meet the members after them and the four cells after it in (x, y).
    # So every pair is tested once, and appending gives no duplicates.
    for (cx, cy), members in cells.items():
        near = members[:]
        for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1),
                    (cx, cy + 1)):
            near += cells.get(key, ())
        for k, (i, xi, yi) in enumerate(members, start=1):
            links = adjacency[i]
            for j, xj, yj in near[k:]:
                if hypot(xi - xj, yi - yj) <= r:
                    links.append(j)
                    adjacency[j].append(i)
    for links in adjacency.values():
        links.sort()
    return adjacency


def build_topology(scenario: "ScenarioConfig") -> Topology:
    """Deterministic placement, role assignment, adjacency and round-0
    routes for a scenario; every sensor must reach the sink at round 0.

    The scenario is validated first; what is checked here beyond that is
    only what the layout decides.
    """
    scenario.validate()
    positions = _positions(scenario)
    roles, sink, sub_sink, aggregators = _assign_roles(scenario, positions)
    if scenario.mode == "framework" and not aggregators:
        raise InvalidScenario("framework mode requires at least one aggregator")

    nodes = [Node(i, roles[i], positions[i]) for i in range(scenario.node_count)]
    r = scenario.comm_radius
    topo = Topology(nodes=nodes, comm_radius=r,
                    adjacency=_adjacency(positions, r),
                    alive=set(range(scenario.node_count)), sink=sink,
                    sub_sink=sub_sink, aggregators=aggregators)

    recompute_routes(topo, scenario.mode)
    for node in nodes:
        if node.role is NodeRole.SENSOR and node.id not in topo.sink_hops:
            raise DisconnectedTopology(
                f"sensor {node.id} has no path to the sink at round 0")
    return topo


def hop_distances(t: Topology, sources: Sequence[int]
                  ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """BFS over the alive subgraph from every alive node in `sources`.

    Returns `(dist, next_hop)`: hops to the nearest source and, for every
    other node, its lowest-id neighbour one hop nearer to its first
    nearest source in `sources` order. Expanding each level in (source
    index, id) order makes that neighbour the first to reach the node.
    """
    alive, adjacency = t.alive, t.adjacency
    dist: Dict[int, int] = {}
    next_hop: Dict[int, int] = {}
    frontier = []
    for i, s in enumerate(sources):
        if s in alive and s not in dist:
            dist[s] = 0
            frontier.append((i, s))
    while frontier:
        nxt = []
        for i, u in sorted(frontier):
            d = dist[u] + 1
            for v in filterfalse(dist.__contains__, adjacency[u]):
                if v in alive:
                    dist[v] = d
                    next_hop[v] = u
                    nxt.append((i, v))
        frontier = nxt
    return dist, next_hop


def _walk(next_hop: Dict[int, int], src: int,
          built: Dict[int, List[int]]) -> List[int]:
    """Follow `next_hop` pointers from `src` to its BFS source. The walk
    stops at the first node with a route in `built`, a walk over the same
    `next_hop`, and appends a copy of that route."""
    path = [src]
    while src in next_hop:
        src = next_hop[src]
        route = built.get(src)
        if route is not None:
            path += route
            break
        path.append(src)
    return path


def shortest_hop_path(t: Topology, src: int, dst: int) -> List[int]:
    """Lexicographically-smallest minimum-hop path from src to dst.

    Each hop goes to the lowest-id alive neighbour one hop nearer to dst,
    which makes equal-length path choice deterministic.
    """
    if src == dst:
        return [src]
    if src not in t.alive:
        raise NoRoute(f"node {src} is not alive")
    dist, next_hop = hop_distances(t, (dst,))
    if src not in dist:
        raise NoRoute(f"no path from {src} to {dst} over alive nodes")
    return _walk(next_hop, src, {})


def recompute_routes(t: Topology, mode: str) -> None:
    """Refresh the route table and `sink_hops`; nodes without a route are
    omitted.

    Baseline routes every alive sensor on the sink's field. Framework
    routes the sink and the sub-sink on the sink's field, each aggregator
    on the sub-sink's field, and each sensor on the aggregators' field, to
    its collector: the nearest alive aggregator by hop count, the first in
    `t.aggregators` order on equal hops. Each hop goes to the lowest-id
    alive neighbour one hop nearer to the field's sources. One BFS runs per
    field: one in baseline, three in framework. The sink's hop counts
    become `t.sink_hops`: every alive node that can reach it.
    """
    sink = hop_distances(t, (t.sink,))
    fields = ({NodeRole.SENSOR: sink} if mode == "baseline" else
              {NodeRole.SINK: sink, NodeRole.SUB_SINK: sink,
               # a sub-sink of None is never alive, so its field is empty
               NodeRole.AGGREGATOR: hop_distances(t, (t.sub_sink,)),
               NodeRole.SENSOR: hop_distances(t, t.aggregators)})
    built = {role: {} for role in fields}  # each role's routes so far
    routes: Dict[int, List[int]] = {}
    for node in t.nodes:
        bfs = fields.get(node.role)
        if bfs is not None and node.id in bfs[0]:
            routes[node.id] = built[node.role][node.id] = _walk(
                bfs[1], node.id, built[node.role])
    t.routes = routes
    t.sink_hops = sink[0]


def sink_reachable(t: Topology) -> bool:
    """True while at least one alive sensor can still reach the sink, as of
    the last `recompute_routes`."""
    return any(n.role is NodeRole.SENSOR and n.id in t.sink_hops
               for n in t.nodes)
