"""Exact Network Voronoi Diagrams (paper §5).

Given a set of generator objects, the NVD partitions all vertices into
*Voronoi node sets*: ``Vns(o)`` contains every vertex whose closest
object (by network distance) is ``o``.  One multi-source Dijkstra builds
it in ``O(|V| log |V|)``.

A query wants the objects it can *reach* cheaply, so the owner is
``argmin_o d(v -> o)`` and the multi-source search walks entering arcs
(on a symmetric graph, the same arcs).  Property 2 survives one-way
streets: on the shortest path ``q -> o_k``, let ``w`` be the last vertex
owned by some ``o_j != o_k``; the arc leaving ``w`` crosses into
``o_k``'s cell, so the cells are adjacent, and ``d(q -> o_j) <=
d(q -> w) + d(w -> o_j) <= d(q -> o_k)`` — the k-th nearest object is
adjacent to a closer one, which is all Algorithm 4 needs.  Cell
adjacency therefore comes from arcs whose endpoints have different
owners, recorded both ways whichever way the arc points.

Alongside the vertex->owner map the builder derives the two artefacts
K-SPIN actually keeps:

* the **adjacency graph** between objects whose Voronoi cells touch —
  the structure Algorithm 4 (LazyReheap) walks to maintain on-demand
  inverted heaps (Property 2: the k-th NN is adjacent to one of the
  first k-1 NNs), and
* **MaxRadius(o)** — the largest distance from ``o`` to a vertex of its
  cell, which Theorem 2 uses to prune insertion affected sets.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dijkstra import multi_source_dijkstra
from repro.graph.road_network import RoadNetwork


class NetworkVoronoiDiagram:
    """Exact NVD over a set of generator objects.

    Parameters
    ----------
    graph:
        The road network.
    objects:
        Generator vertices (e.g. ``inv(t)`` for one keyword).

    Examples
    --------
    >>> from repro.graph import perturbed_grid_network
    >>> g = perturbed_grid_network(4, 4, seed=0)
    >>> nvd = NetworkVoronoiDiagram(g, [0, 15])
    >>> nvd.owner(0)
    0
    >>> sorted(nvd.objects)
    [0, 15]
    """

    def __init__(self, graph: RoadNetwork, objects: list[int]) -> None:
        if not objects:
            raise ValueError("an NVD needs at least one generator object")
        self.objects = sorted(set(objects))
        for o in self.objects:
            if not 0 <= o < graph.num_vertices:
                raise ValueError(f"object {o} is not a vertex")
        distances, owners = multi_source_dijkstra(graph, self.objects, reverse=True)
        self._owners = owners
        self._distances = distances
        self.adjacency: dict[int, set[int]] = {o: set() for o in self.objects}
        self.max_radius: dict[int, float] = {o: 0.0 for o in self.objects}
        # Label each stored arc with its endpoints' owners and reduce:
        # boundary arcs (owners differ, both reachable) become adjacency
        # pairs after a ``np.unique``; a scatter-max over owned vertices
        # gives MaxRadius.
        csr = graph.csr()
        owner_arr = np.asarray(owners, dtype=np.int64)
        dist_arr = np.asarray(distances, dtype=np.float64)
        tails = np.repeat(
            np.arange(csr.num_vertices, dtype=np.int64), np.diff(csr.indptr)
        )
        tail_owner = owner_arr[tails]
        head_owner = owner_arr[csr.indices]
        boundary = (tail_owner != head_owner) & (tail_owner >= 0) & (head_owner >= 0)
        if bool(boundary.any()):
            pairs = np.unique(
                np.stack([tail_owner[boundary], head_owner[boundary]], axis=1),
                axis=0,
            )
            # A two-way street stores both arcs, so its pair already
            # comes in both orientations; a one-way arc's does not.
            for owner_u, owner_v in pairs.tolist():
                self.adjacency[owner_u].add(owner_v)
                self.adjacency[owner_v].add(owner_u)
        owned = (owner_arr >= 0) & np.isfinite(dist_arr)
        radius = np.zeros(csr.num_vertices, dtype=np.float64)
        np.maximum.at(radius, owner_arr[owned], dist_arr[owned])
        for o in self.objects:
            self.max_radius[o] = float(radius[o])

    def owner(self, vertex: int) -> int:
        """The generator object owning ``vertex`` (its network 1NN);
        ``-1`` if the vertex reaches no object."""
        return self._owners[vertex]

    def distance_to_owner(self, vertex: int) -> float:
        """Network distance from ``vertex`` to its owner."""
        return self._distances[vertex]

    def cell(self, obj: int) -> list[int]:
        """``Vns(obj)`` — every vertex owned by ``obj``."""
        if obj not in self.adjacency:
            raise KeyError(f"{obj} is not a generator object")
        return [v for v, owner in enumerate(self._owners) if owner == obj]

    def adjacent_objects(self, obj: int) -> set[int]:
        """Objects whose Voronoi cells share an edge with ``obj``'s cell."""
        return set(self.adjacency[obj])

    def average_degree(self) -> float:
        """Mean adjacency-graph degree (Observation 2a: a small constant)."""
        if not self.objects:
            return 0.0
        return sum(len(a) for a in self.adjacency.values()) / len(self.objects)

    def memory_bytes(self) -> int:
        """Footprint of the full NVD (vertex owner map dominates: O(|V|))."""
        return len(self._owners) * 8 + self.adjacency_memory_bytes()

    def adjacency_memory_bytes(self) -> int:
        """Footprint of only the adjacency graph + MaxRadius (O(|inv(t)|)).

        Observation 2a: this is what K-SPIN retains at query time.
        """
        edges = sum(len(a) for a in self.adjacency.values())
        return edges * 16 + len(self.objects) * 16
