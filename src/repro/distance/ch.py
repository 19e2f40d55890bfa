"""Contraction Hierarchies (Geisberger et al., WEA 2008).

The paper's KS-CH variant pairs K-SPIN with CH as its Network Distance
Module: CH offers a small index and queries far faster than Dijkstra.

Construction contracts vertices in importance order (lazy edge-difference
heuristic), inserting shortcut edges that preserve shortest-path
distances among the remaining vertices.  A query then runs a
bidirectional Dijkstra that only relaxes edges leading *upward* in the
contraction order; the meeting vertex with the smallest combined distance
gives the exact network distance.
"""

from __future__ import annotations

import heapq
import math

from repro import kernels
from repro.distance.base import DistanceOracle
from repro.graph.road_network import RoadNetwork

INFINITY = math.inf


class ContractionHierarchy(DistanceOracle):
    """A CH index over a road network.

    Parameters
    ----------
    graph:
        The road network to index.  Must not be mutated afterwards.
    witness_settle_limit:
        Max vertices settled per witness search.  Small limits speed up
        construction at the cost of a few redundant (but harmless)
        shortcuts.

    Examples
    --------
    >>> from repro.graph import perturbed_grid_network
    >>> g = perturbed_grid_network(4, 4, seed=0)
    >>> ch = ContractionHierarchy(g)
    >>> round(ch.distance(0, 15), 6) == round(__import__(
    ...     "repro.graph.dijkstra", fromlist=["dijkstra_distance"]
    ... ).dijkstra_distance(g, 0, 15), 6)
    True
    """

    name = "CH"

    def __init__(self, graph: RoadNetwork, witness_settle_limit: int = 500) -> None:
        super().__init__()
        graph._require_symmetric(type(self).__name__)
        self._n = graph.num_vertices
        self._witness_settle_limit = witness_settle_limit
        # Working adjacency mutated during contraction (original + shortcuts
        # among not-yet-contracted vertices).
        self._work: list[dict[int, float]] = [
            dict() for _ in range(self._n)
        ]
        for u, v, w in graph.edges():
            self._work[u][v] = min(w, self._work[u].get(v, INFINITY))
            self._work[v][u] = min(w, self._work[v].get(u, INFINITY))
        self.rank: list[int] = [-1] * self._n
        self.num_shortcuts = 0
        # Upward adjacency filled in during contraction.
        self._upward: list[list[tuple[int, float]]] = [[] for _ in range(self._n)]
        # (u, v) -> contracted middle vertex, for unpacking shortcut
        # edges back into original-graph paths.
        self._middle: dict[tuple[int, int], int] = {}
        self._contract_all()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _contract_all(self) -> None:
        contracted = [False] * self._n
        heap = [
            (self._edge_difference(v, contracted), v) for v in range(self._n)
        ]
        heapq.heapify(heap)
        next_rank = 0
        deleted_neighbors = [0] * self._n
        while heap:
            priority, v = heapq.heappop(heap)
            if contracted[v]:
                continue
            # Lazy update: re-check priority before committing.
            current = self._edge_difference(v, contracted) + deleted_neighbors[v]
            if heap and current > heap[0][0]:
                heapq.heappush(heap, (current, v))
                continue
            self._contract_vertex(v, contracted)
            contracted[v] = True
            self.rank[v] = next_rank
            next_rank += 1
            for u in self._work[v]:
                deleted_neighbors[u] += 1

    def _edge_difference(self, v: int, contracted: list[bool]) -> int:
        """Shortcuts that contracting ``v`` would add, minus edges removed."""
        neighbors = [u for u in self._work[v] if not contracted[u]]
        shortcuts = 0
        for i, u in enumerate(neighbors):
            through = self._work[v][u]
            for w in neighbors[i + 1 :]:
                via = through + self._work[v][w]
                if not self._has_witness(u, w, v, via, contracted):
                    shortcuts += 1
        return shortcuts - len(neighbors)

    def _contract_vertex(self, v: int, contracted: list[bool]) -> None:
        neighbors = [u for u in self._work[v] if not contracted[u]]
        for u in neighbors:
            self._upward[v].append((u, self._work[v][u]))
        for i, u in enumerate(neighbors):
            through = self._work[v][u]
            for w in neighbors[i + 1 :]:
                via = through + self._work[v][w]
                if self._has_witness(u, w, v, via, contracted):
                    continue
                if via < self._work[u].get(w, INFINITY):
                    if w not in self._work[u]:
                        self.num_shortcuts += 1
                    self._work[u][w] = via
                    self._work[w][u] = via
                    self._middle[(min(u, w), max(u, w))] = v

    def _has_witness(
        self,
        source: int,
        target: int,
        excluded: int,
        limit: float,
        contracted: list[bool],
    ) -> bool:
        """Local Dijkstra: is there a path s->t <= limit avoiding ``excluded``?"""
        distances = {source: 0.0}
        heap = [(0.0, source)]
        settled = 0
        while heap and settled < self._witness_settle_limit:
            dist_u, u = heapq.heappop(heap)
            if dist_u > distances.get(u, INFINITY):
                continue
            if u == target:
                return dist_u <= limit
            if dist_u > limit:
                return False
            settled += 1
            for w, weight in self._work[u].items():
                if w == excluded or contracted[w]:
                    continue
                candidate = dist_u + weight
                if candidate < distances.get(w, INFINITY):
                    distances[w] = candidate
                    heapq.heappush(heap, (candidate, w))
        return distances.get(target, INFINITY) <= limit

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Exact network distance via bidirectional upward search.

        Uses the standard CH termination: a direction stops once its
        queue minimum meets the best meeting-point distance found so
        far (every later meeting through that side can only be worse).

        The search runs over the calling thread's generation-stamped
        :class:`~repro.kernels.SearchWorkspace` flat buffers — O(1)
        reset between queries, no per-query dict churn.  A buffer slot
        counts as "unreached" unless its stamp equals the workspace's
        current generation.  The workspace comes from the per-thread
        registry, so concurrent queries never share scratch and the
        oracle itself stays pickle-friendly (no captured buffers or
        thread-locals on the instance).
        """
        self.query_count += 1
        if source == target:
            return 0.0
        workspace = kernels.get_workspace(self._n)
        generation = workspace.begin()
        forward = workspace.stamped(0)
        backward = workspace.stamped(1)
        values = (forward[0], backward[0])
        stamps = (forward[1], backward[1])
        values[0][source] = 0.0
        stamps[0][source] = generation
        values[1][target] = 0.0
        stamps[1][target] = generation
        heaps: tuple[list[tuple[float, int]], list[tuple[float, int]]] = (
            [(0.0, source)],
            [(0.0, target)],
        )
        best = INFINITY
        upward = self._upward
        while heaps[0] or heaps[1]:
            for side in (0, 1):
                heap = heaps[side]
                if not heap:
                    continue
                dist_u, u = heapq.heappop(heap)
                if dist_u >= best:
                    heap.clear()  # no better meeting via this direction
                    continue
                own_values, own_stamps = values[side], stamps[side]
                if dist_u > own_values[u]:  # stale heap entry
                    continue
                other_values, other_stamps = values[1 - side], stamps[1 - side]
                if other_stamps[u] == generation:
                    meeting = dist_u + other_values[u]
                    if meeting < best:
                        best = meeting
                for v, weight in upward[u]:
                    candidate = dist_u + weight
                    if candidate < best and (
                        own_stamps[v] != generation or candidate < own_values[v]
                    ):
                        own_values[v] = candidate
                        own_stamps[v] = generation
                        heapq.heappush(heap, (candidate, v))
        return best

    def shortest_path(self, source: int, target: int) -> list[int]:
        """The shortest path as a vertex sequence in the original graph.

        Runs the bidirectional upward search with parent pointers, then
        recursively unpacks shortcut edges through their contracted
        middle vertices.  Returns ``[]`` when disconnected and
        ``[source]`` when ``source == target``.
        """
        if source == target:
            return [source]
        dist = ({source: 0.0}, {target: 0.0})
        parents: tuple[dict[int, int], dict[int, int]] = ({}, {})
        heaps: tuple[list[tuple[float, int]], list[tuple[float, int]]] = (
            [(0.0, source)],
            [(0.0, target)],
        )
        best = INFINITY
        meeting = -1
        upward = self._upward
        while heaps[0] or heaps[1]:
            for side in (0, 1):
                heap = heaps[side]
                if not heap:
                    continue
                dist_u, u = heapq.heappop(heap)
                if dist_u >= best:
                    heap.clear()
                    continue
                own = dist[side]
                if dist_u > own.get(u, INFINITY):
                    continue
                other = dist[1 - side].get(u)
                if other is not None and dist_u + other < best:
                    best = dist_u + other
                    meeting = u
                for v, weight in upward[u]:
                    candidate = dist_u + weight
                    if candidate < own.get(v, INFINITY) and candidate < best:
                        own[v] = candidate
                        parents[side][v] = u
                        heapq.heappush(heap, (candidate, v))
        if meeting < 0:
            return []
        forward = self._chain(parents[0], source, meeting)
        backward = self._chain(parents[1], target, meeting)
        contracted_path = forward + backward[::-1][1:]
        return self._unpack_path(contracted_path)

    @staticmethod
    def _chain(parents: dict[int, int], root: int, leaf: int) -> list[int]:
        path = [leaf]
        while path[-1] != root:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    def _unpack_path(self, path: list[int]) -> list[int]:
        """Expand shortcut edges into original-graph vertex sequences."""
        result = [path[0]]
        for a, b in zip(path, path[1:]):
            result.extend(self._unpack_edge(a, b))
        return result

    def _unpack_edge(self, a: int, b: int) -> list[int]:
        middle = self._middle.get((min(a, b), max(a, b)))
        if middle is None:
            return [b]
        return self._unpack_edge(a, middle) + self._unpack_edge(middle, b)

    def memory_bytes(self) -> int:
        per_entry = 72
        return sum(len(a) for a in self._upward) * per_entry + self._n * 28
