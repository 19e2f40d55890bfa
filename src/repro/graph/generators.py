"""Synthetic road-network generators.

The paper evaluates on five DIMACS road graphs (DE, ME, FL, E, US;
48k - 24M vertices).  Those inputs are not shipped here, and pure Python
cannot process 24M-vertex graphs at benchmark rates, so we generate
*structurally faithful* stand-ins: planar, low-degree, locally connected
networks with perturbed geometry and travel-time-like weights.  Real road
networks are near-planar with average degree ~2.4-2.8; the perturbed-grid
generator reproduces both properties.

Generators are deterministic given a seed, so every experiment in
``benchmarks/`` is reproducible.
"""

from __future__ import annotations

import math
import random

from repro.graph.dijkstra import dijkstra_all
from repro.graph.road_network import RoadNetwork


def perturbed_grid_network(
    rows: int,
    cols: int,
    seed: int = 0,
    drop_fraction: float = 0.1,
    diagonal_fraction: float = 0.05,
    coordinate_jitter: float = 0.3,
    weight_jitter: float = 0.5,
) -> RoadNetwork:
    """A road-network-like perturbed grid.

    Starts from a ``rows x cols`` lattice, jitters coordinates, drops a
    fraction of edges (dead ends, rivers), and adds a few diagonal
    shortcuts (highways).  Edge weights are Euclidean lengths scaled by a
    random factor in ``[1, 1 + weight_jitter]``, mimicking heterogeneous
    speeds.  Connectivity is restored after edge drops, so the result is
    always a single component.

    Parameters
    ----------
    rows, cols:
        Lattice dimensions; the network has ``rows * cols`` vertices.
    seed:
        RNG seed; identical seeds produce identical networks.
    drop_fraction:
        Fraction of lattice edges removed at random.
    diagonal_fraction:
        Fraction of lattice cells that receive one diagonal shortcut.
    coordinate_jitter:
        Max absolute jitter applied to each unit-grid coordinate.
    weight_jitter:
        Max relative increase of an edge weight over its length.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid must be at least 2x2")
    rng = random.Random(seed)
    n = rows * cols
    graph = RoadNetwork(n)

    def vertex(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            x = c + rng.uniform(-coordinate_jitter, coordinate_jitter)
            y = r + rng.uniform(-coordinate_jitter, coordinate_jitter)
            graph.set_coordinates(vertex(r, c), x, y)

    candidate_edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                candidate_edges.append((vertex(r, c), vertex(r, c + 1)))
            if r + 1 < rows:
                candidate_edges.append((vertex(r, c), vertex(r + 1, c)))

    kept = [e for e in candidate_edges if rng.random() >= drop_fraction]
    for u, v in kept:
        graph.add_edge(u, v, _edge_length(graph, u, v, rng, weight_jitter))

    for r in range(rows - 1):
        for c in range(cols - 1):
            if rng.random() < diagonal_fraction:
                u, v = vertex(r, c), vertex(r + 1, c + 1)
                graph.add_edge(u, v, _edge_length(graph, u, v, rng, weight_jitter))

    _restore_connectivity(graph, candidate_edges, rng, weight_jitter)
    return graph


def random_geometric_network(
    num_vertices: int,
    seed: int = 0,
    average_degree: float = 2.6,
    weight_jitter: float = 0.5,
) -> RoadNetwork:
    """A random geometric graph wired like a sparse road network.

    Vertices are uniform in the unit square; each vertex connects to its
    nearest unlinked neighbors until the target average degree is met.
    A spanning pass guarantees connectivity.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    rng = random.Random(seed)
    graph = RoadNetwork(num_vertices)
    points = [(rng.random(), rng.random()) for _ in range(num_vertices)]
    for v, (x, y) in enumerate(points):
        graph.set_coordinates(v, x, y)

    # Bucket the square so nearest-neighbor search is near-linear.
    buckets: dict[tuple[int, int], list[int]] = {}
    cell = max(1e-9, 1.0 / max(1, int(math.sqrt(num_vertices))))
    for v, (x, y) in enumerate(points):
        buckets.setdefault((int(x / cell), int(y / cell)), []).append(v)

    target_edges = int(num_vertices * average_degree / 2)
    links_per_vertex = max(1, round(average_degree / 2))
    for u in range(num_vertices):
        ux, uy = points[u]
        bx, by = int(ux / cell), int(uy / cell)
        nearby = [
            w
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for w in buckets.get((bx + dx, by + dy), ())
            if w != u
        ]
        nearby.sort(key=lambda w: _squared_distance(points[u], points[w]))
        for w in nearby[:links_per_vertex]:
            if graph.num_edges >= target_edges:
                break
            graph.add_edge(u, w, _edge_length(graph, u, w, rng, weight_jitter))

    _connect_components_geometrically(graph, rng, weight_jitter)
    return graph


def with_one_way_streets(
    graph: RoadNetwork, fraction: float = 0.3, seed: int = 0
) -> RoadNetwork:
    """A strongly connected copy of ``graph`` with one-way streets.

    Turns ``fraction`` of the (symmetric) network's edges into
    single-direction arcs (random orientation), then restores strong
    connectivity by re-adding a one-way street's reverse arc only when
    its head cannot currently reach its tail.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    rng = random.Random(seed)
    streets = RoadNetwork(graph.num_vertices)
    for v in graph.vertices():
        streets.set_coordinates(v, *graph.coordinates(v))
    one_way: list[tuple[int, int, float]] = []
    for u, v, weight in graph.edges():
        if rng.random() < fraction:
            if rng.random() < 0.5:
                u, v = v, u
            streets.add_arc(u, v, weight)
            one_way.append((u, v, weight))
        else:
            streets.add_edge(u, v, weight)
    rng.shuffle(one_way)
    for u, v, weight in one_way:
        # The arc u -> v exists; the street only hurts connectivity if
        # v cannot get back to u some other way.
        if u not in streets.component_of(v):
            streets.add_arc(v, u, weight)
    # Strongly connected: vertex 0 reaches every vertex and is reached by it.
    both_ways = dijkstra_all(streets, 0) + dijkstra_all(streets, 0, reverse=True)
    assert max(both_ways) < math.inf
    return streets


def _edge_length(
    graph: RoadNetwork, u: int, v: int, rng: random.Random, weight_jitter: float
) -> float:
    (ux, uy), (vx, vy) = graph.coordinates(u), graph.coordinates(v)
    length = math.hypot(ux - vx, uy - vy)
    return max(1e-6, length) * (1.0 + rng.uniform(0.0, weight_jitter))


def _squared_distance(p: tuple[float, float], q: tuple[float, float]) -> float:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _restore_connectivity(
    graph: RoadNetwork,
    candidate_edges: list[tuple[int, int]],
    rng: random.Random,
    weight_jitter: float,
) -> None:
    """Re-add dropped lattice edges until the graph is one component."""
    component = graph.component_of(0)
    while len(component) < graph.num_vertices:
        crossing = [
            (u, v)
            for u, v in candidate_edges
            if (u in component) != (v in component)
        ]
        if not crossing:  # pragma: no cover - lattice always has crossings
            break
        u, v = rng.choice(crossing)
        graph.add_edge(u, v, _edge_length(graph, u, v, rng, weight_jitter))
        component = graph.component_of(0)


def _connect_components_geometrically(
    graph: RoadNetwork, rng: random.Random, weight_jitter: float
) -> None:
    """Stitch disconnected components with their geometrically closest pair."""
    main = graph.component_of(0)
    while len(main) < graph.num_vertices:
        outside = next(v for v in graph.vertices() if v not in main)
        island = graph.component_of(outside)
        best: tuple[float, int, int] | None = None
        sample_main = rng.sample(sorted(main), min(len(main), 200))
        for u in island:
            for w in sample_main:
                d = _squared_distance(graph.coordinates(u), graph.coordinates(w))
                if best is None or d < best[0]:
                    best = (d, u, w)
        assert best is not None
        _, u, w = best
        graph.add_edge(u, w, _edge_length(graph, u, w, rng, weight_jitter))
        main |= island
