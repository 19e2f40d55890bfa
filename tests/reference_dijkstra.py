"""The test suite's one independent search reference.

A textbook binary-heap Dijkstra over the graph's adjacency lists. It
shares nothing with :mod:`repro.kernels` (no CSR view, no scipy, no
workspace), so the kernel property tests compare against something that
is not the kernels.
"""

import heapq
import math


def textbook_sssp(graph, source, reverse=False):
    """Distances from ``source`` to every vertex (``inf`` if unreachable);
    with ``reverse``, from every vertex to ``source``."""
    arcs = graph.in_neighbors if reverse else graph.neighbors
    distances = [math.inf] * graph.num_vertices
    distances[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        dist_u, u = heapq.heappop(heap)
        if dist_u > distances[u]:
            continue
        for v, weight in arcs(u):
            if dist_u + weight < distances[v]:
                distances[v] = dist_u + weight
                heapq.heappush(heap, (distances[v], v))
    return distances
