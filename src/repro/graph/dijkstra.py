"""Shortest-path primitives over :class:`~repro.graph.road_network.RoadNetwork`.

These routines back the exact reference oracle, NVD construction
(multi-source Dijkstra), ALT landmark tables (single-source Dijkstra)
and the expansion baseline.  Everything else in the repository reuses
them rather than re-implementing graph searches.

Each function runs its search over the graph's cached flat-array view
(:mod:`repro.kernels`, scipy's C Dijkstra) on the calling thread's
:class:`~repro.kernels.SearchWorkspace`.  Searches walk leaving arcs
(``graph.csr()``) and compute ``d(source -> .)``; with ``reverse=True``
they walk entering arcs (``graph.csr_in()``) and compute
``d(. -> source)``.  On a symmetric graph both views are one object, so
the flag changes nothing there.  :func:`dijkstra_within` is the
exception: it walks a subgraph adjacency dict (G-tree and ROAD leaves),
not the graph.
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
    csr = graph.csr_in() if reverse else graph.csr()
    workspace = kernels.get_workspace(csr.num_vertices)
    return list(kernels.sssp(csr, source, workspace).tolist())


def dijkstra_distance(graph: RoadNetwork, source: int, target: int) -> float:
    """Point-to-point distance ``d(source -> target)``.

    A memoised full SSSP rather than an early exit: the refinement loop
    asks for many targets from one source, so the first call pays one
    C-level search and the rest are O(1) lookups.
    """
    csr = graph.csr()
    workspace = kernels.get_workspace(csr.num_vertices)
    return kernels.p2p(csr, source, target, workspace)


def dijkstra_to_targets(
    graph: RoadNetwork, source: int, targets: Iterable[int]
) -> dict[int, float]:
    """Distances from ``source`` to each target (``inf`` if unreachable)."""
    csr = graph.csr()
    workspace = kernels.get_workspace(csr.num_vertices)
    return kernels.to_targets(csr, source, targets, workspace)


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
        ``owners[v]`` is a source vertex closest to ``v`` (exact ties
        are broken deterministically by scipy's heap order), or ``-1``
        if ``v`` is unreachable from every source.
    """
    if not sources:
        raise ValueError("multi_source_dijkstra needs at least one source")
    csr = graph.csr_in() if reverse else graph.csr()
    dist, owner = kernels.multi_source(csr, sources)
    return list(dist.tolist()), list(owner.tolist())


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

    Collects the first ``k`` vertices, in settle order, for which
    ``is_match(vertex)`` is true.  Returns ``[(vertex, distance)]``
    sorted by distance, ties by vertex id.
    """
    csr = graph.csr()
    workspace = kernels.get_workspace(csr.num_vertices)
    return kernels.match_scan(csr, source, k, is_match, workspace)
