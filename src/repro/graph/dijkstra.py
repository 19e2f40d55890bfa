"""Shortest-path primitives over :class:`~repro.graph.road_network.RoadNetwork`.

These routines back the exact reference oracle, NVD construction
(multi-source Dijkstra), ALT landmark tables (single-source Dijkstra),
and the bidirectional baseline.  Everything else in the repository
reuses them rather than re-implementing graph searches.

Each public function is a dispatcher: when the CSR kernels are active
(``REPRO_KERNELS`` — see :mod:`repro.kernels`) the search runs over the
graph's cached flat-array view in C; otherwise the pure-Python
list-based body below runs.  The python bodies are the semantic
reference — the kernels' property tests compare against them — so they
are kept verbatim, not as dead code.

Searches walk leaving arcs and compute ``d(source -> .)``.  With
``reverse=True`` they walk entering arcs — ``graph.csr_in()`` under the
kernels, ``graph.in_neighbors`` in the python bodies — and compute
``d(. -> source)``; on a symmetric graph both are the same arrays and
lists, so the flag changes nothing there.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, Sequence

from repro import kernels
from repro.graph.road_network import RoadNetwork

INFINITY = math.inf


def dijkstra_all(
    graph: RoadNetwork, source: int, reverse: bool = False
) -> list[float]:
    """Distances from ``source`` to every vertex (``inf`` if unreachable);
    with ``reverse``, from every vertex to ``source``."""
    if kernels.enabled():
        csr = graph.csr_in() if reverse else graph.csr()
        workspace = kernels.get_workspace(csr.num_vertices)
        return list(kernels.sssp(csr, source, workspace).tolist())
    distances = [INFINITY] * graph.num_vertices
    distances[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    neighbors = graph.in_neighbors if reverse else graph.neighbors
    while heap:
        dist_u, u = heapq.heappop(heap)
        if dist_u > distances[u]:
            continue
        for v, weight in neighbors(u):
            candidate = dist_u + weight
            if candidate < distances[v]:
                distances[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return distances


def dijkstra_distance(graph: RoadNetwork, source: int, target: int) -> float:
    """Point-to-point distance with early termination at ``target``.

    The CSR path trades the early exit for a memoised full SSSP: the
    refinement loop asks for many targets from one source, so the first
    call pays one C-level search and the rest are O(1) lookups.
    """
    if source == target:
        return 0.0
    if kernels.enabled():
        csr = graph.csr()
        workspace = kernels.get_workspace(csr.num_vertices)
        return kernels.p2p(csr, source, target, workspace)
    distances = [INFINITY] * graph.num_vertices
    distances[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    neighbors = graph.neighbors
    while heap:
        dist_u, u = heapq.heappop(heap)
        if u == target:
            return dist_u
        if dist_u > distances[u]:
            continue
        for v, weight in neighbors(u):
            candidate = dist_u + weight
            if candidate < distances[v]:
                distances[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return INFINITY


def dijkstra_to_targets(
    graph: RoadNetwork, source: int, targets: Iterable[int]
) -> dict[int, float]:
    """Distances from ``source`` to each target, stopping once all are settled."""
    if kernels.enabled():
        csr = graph.csr()
        workspace = kernels.get_workspace(csr.num_vertices)
        return kernels.to_targets(csr, source, targets, workspace)
    remaining = set(targets)
    result: dict[int, float] = {}
    if source in remaining:
        result[source] = 0.0
        remaining.discard(source)
    if not remaining:
        return result
    distances = [INFINITY] * graph.num_vertices
    distances[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    neighbors = graph.neighbors
    while heap and remaining:
        dist_u, u = heapq.heappop(heap)
        if dist_u > distances[u]:
            continue
        if u in remaining:
            result[u] = dist_u
            remaining.discard(u)
            if not remaining:
                break
        for v, weight in neighbors(u):
            candidate = dist_u + weight
            if candidate < distances[v]:
                distances[v] = candidate
                heapq.heappush(heap, (candidate, v))
    for t in remaining:
        result[t] = INFINITY
    return result


def multi_source_dijkstra(
    graph: RoadNetwork, sources: Sequence[int], reverse: bool = False
) -> tuple[list[float], list[int]]:
    """Grow shortest-path trees from all ``sources`` simultaneously.

    This is the "parallel Dijkstra" used to build network Voronoi
    diagrams: every vertex is labelled with the distance to, and identity
    of, its closest source — with ``reverse``, the source it *reaches*
    most cheaply, ``argmin_s d(v -> s)``.

    Returns
    -------
    (distances, owners):
        ``owners[v]`` is the source vertex closest to ``v`` (ties broken
        by heap order, deterministically by smaller distance then vertex
        id), or ``-1`` if ``v`` is unreachable from every source.
    """
    if not sources:
        raise ValueError("multi_source_dijkstra needs at least one source")
    if kernels.enabled():
        csr = graph.csr_in() if reverse else graph.csr()
        dist, owner = kernels.multi_source(csr, sources)
        return list(dist.tolist()), list(owner.tolist())
    distances = [INFINITY] * graph.num_vertices
    owners = [-1] * graph.num_vertices
    heap: list[tuple[float, int, int]] = []
    for s in sorted(set(sources)):
        distances[s] = 0.0
        owners[s] = s
        heap.append((0.0, s, s))
    heapq.heapify(heap)
    neighbors = graph.in_neighbors if reverse else graph.neighbors
    while heap:
        dist_u, u, owner = heapq.heappop(heap)
        if dist_u > distances[u]:
            continue
        for v, weight in neighbors(u):
            candidate = dist_u + weight
            if candidate < distances[v]:
                distances[v] = candidate
                owners[v] = owner
                heapq.heappush(heap, (candidate, v, owner))
    return distances, owners


def bidirectional_dijkstra(graph: RoadNetwork, source: int, target: int) -> float:
    """Point-to-point distance by meeting forward and backward searches.

    Under the CSR kernels this baseline routes to the same memoised SSSP
    as :func:`dijkstra_distance`: the C search beats a python meet-in-
    the-middle outright, and repeated same-source calls become O(1).
    """
    if source == target:
        return 0.0
    if kernels.enabled():
        csr = graph.csr()
        workspace = kernels.get_workspace(csr.num_vertices)
        return kernels.p2p(csr, source, target, workspace)
    dist_f = {source: 0.0}
    dist_b = {target: 0.0}
    heap_f: list[tuple[float, int]] = [(0.0, source)]
    heap_b: list[tuple[float, int]] = [(0.0, target)]
    settled_f: set[int] = set()
    settled_b: set[int] = set()
    best = INFINITY
    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        # Expand the smaller frontier for balance; the backward one
        # walks entering arcs.
        if heap_f[0][0] <= heap_b[0][0]:
            heap, dist, settled, other_dist = heap_f, dist_f, settled_f, dist_b
            neighbors = graph.neighbors
        else:
            heap, dist, settled, other_dist = heap_b, dist_b, settled_b, dist_f
            neighbors = graph.in_neighbors
        dist_u, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u in other_dist:
            best = min(best, dist_u + other_dist[u])
        for v, weight in neighbors(u):
            candidate = dist_u + weight
            if candidate < dist.get(v, INFINITY):
                dist[v] = candidate
                heapq.heappush(heap, (candidate, v))
                if v in other_dist:
                    best = min(best, candidate + other_dist[v])
    return best


def dijkstra_within(
    adjacency: dict[int, list[tuple[int, float]]], source: int
) -> dict[int, float]:
    """Single-source Dijkstra restricted to a subgraph adjacency dict.

    Used by G-tree and ROAD to compute leaf-internal border distances.
    """
    distances: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dist_u, u = heapq.heappop(heap)
        if dist_u > distances.get(u, INFINITY):
            continue
        for v, weight in adjacency.get(u, ()):
            candidate = dist_u + weight
            if candidate < distances.get(v, INFINITY):
                distances[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return distances


def network_expansion_knn(
    graph: RoadNetwork,
    source: int,
    k: int,
    is_match: Callable[[int], bool],
) -> list[tuple[int, float]]:
    """Incremental network expansion: the classic kNN baseline.

    Expands Dijkstra from ``source`` and collects the first ``k`` settled
    vertices for which ``is_match(vertex)`` is true.  Returns
    ``[(vertex, distance)]`` sorted by distance (ties by vertex id, the
    heap's settle order — the CSR kernel reproduces this via a stable
    argsort).
    """
    if k <= 0:
        return []
    if kernels.enabled():
        csr = graph.csr()
        workspace = kernels.get_workspace(csr.num_vertices)
        return kernels.match_scan(csr, source, k, is_match, workspace)
    distances = [INFINITY] * graph.num_vertices
    distances[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    results: list[tuple[int, float]] = []
    neighbors = graph.neighbors
    while heap:
        dist_u, u = heapq.heappop(heap)
        if dist_u > distances[u]:
            continue
        if is_match(u):
            results.append((u, dist_u))
            if len(results) == k:
                break
        for v, weight in neighbors(u):
            candidate = dist_u + weight
            if candidate < distances[v]:
                distances[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return results
