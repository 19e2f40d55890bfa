"""ROAD baseline: Route Overlay and Association Directory (Lee et al.).

ROAD hierarchically partitions the road network into *Rnets*.  Each Rnet
pre-computes *shortcuts* — shortest border-to-border distances within
the subnet (the Route Overlay).  An *Association Directory* records, per
keyword, which Rnets contain objects carrying it.  A query is a Dijkstra
expansion from the query vertex that, on reaching a border of an Rnet
containing no relevant object, *bypasses* the whole subnet through its
shortcuts instead of expanding inside.

Applied to top-k spatial keyword queries [3], ROAD inherits the keyword
aggregation weakness: the directory is aggregated per subnet, so subnets
with low textual relevance still get expanded or bypassed vertex by
vertex, and the expansion visits everything closer than the k-th result.
The paper reports ROAD supports top-k but not Boolean kNN (Table 1 shows
an X) — we match that surface: :meth:`top_k` is the query interface, and
a plain keyword-filtered :meth:`knn` is provided for the directory's
native predicate search.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.api import (
    Query,
    QueryResult,
    ensure_supported,
    hits_from_pairs,
)
from repro.graph.dijkstra import dijkstra_within
from repro.graph.road_network import RoadNetwork
from repro.text.documents import KeywordDataset
from repro.text.relevance import RelevanceModel

INFINITY = math.inf


@dataclass
class Rnet:
    """One subnet of the ROAD hierarchy."""

    index: int
    parent: int
    depth: int
    vertices: set[int]
    children: list[int] = field(default_factory=list)
    borders: list[int] = field(default_factory=list)
    #: shortcuts[border] = [(other_border, within-subnet distance)]
    shortcuts: dict[int, list[tuple[int, float]]] = field(default_factory=dict)


class Road:
    """ROAD-style spatial keyword search framework.

    Parameters
    ----------
    graph, dataset:
        Road network and keyword dataset.
    fanout:
        Children per hierarchy level.
    leaf_size:
        Rnet size below which partitioning stops.
    """

    name = "ROAD"

    def __init__(
        self,
        graph: RoadNetwork,
        dataset: KeywordDataset,
        fanout: int = 4,
        leaf_size: int = 64,
    ) -> None:
        graph._require_symmetric(type(self).__name__)
        if fanout < 2 or leaf_size < 2:
            raise ValueError("fanout and leaf_size must be at least 2")
        self._graph = graph
        self._dataset = dataset
        self._relevance = RelevanceModel(dataset)
        self.rnets: list[Rnet] = []
        self._build_hierarchy(fanout, leaf_size)
        self._build_route_overlay()
        # Association directory: keyword -> set of Rnet ids whose subnet
        # contains an object with the keyword.
        self._directory: dict[str, set[int]] = {}
        self._build_directory()
        # border -> Rnets (largest first) for which it is a border.
        self._border_rnets: dict[int, list[int]] = {}
        for rnet in self.rnets:
            for b in rnet.borders:
                self._border_rnets.setdefault(b, []).append(rnet.index)
        for memberships in self._border_rnets.values():
            memberships.sort(key=lambda i: -len(self.rnets[i].vertices))
        self.bypasses_taken = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_hierarchy(self, fanout: int, leaf_size: int) -> None:
        root = Rnet(
            index=0, parent=-1, depth=0, vertices=set(self._graph.vertices())
        )
        self.rnets.append(root)
        pending = [0]
        while pending:
            index = pending.pop()
            rnet = self.rnets[index]
            if len(rnet.vertices) <= leaf_size:
                continue
            for part in self._partition(sorted(rnet.vertices), fanout):
                child = Rnet(
                    index=len(self.rnets),
                    parent=index,
                    depth=rnet.depth + 1,
                    vertices=set(part),
                )
                self.rnets.append(child)
                rnet.children.append(child.index)
                pending.append(child.index)

    def _partition(self, vertices: list[int], parts: int) -> list[list[int]]:
        groups = [vertices]
        axis = 0
        coordinates = self._graph.coordinates
        while len(groups) < parts:
            groups.sort(key=len, reverse=True)
            biggest = groups.pop(0)
            biggest.sort(key=lambda v: coordinates(v)[axis])
            middle = len(biggest) // 2
            groups.extend([biggest[:middle], biggest[middle:]])
            axis = 1 - axis
        return [g for g in groups if g]

    def _build_route_overlay(self) -> None:
        neighbors = self._graph.neighbors
        for rnet in self.rnets:
            if rnet.index == 0:
                continue  # the whole network needs no shortcuts
            rnet.borders = [
                v
                for v in rnet.vertices
                if any(u not in rnet.vertices for u, _ in neighbors(v))
            ]
            adjacency = self._graph.subgraph_adjacency(rnet.vertices)
            border_set = set(rnet.borders)
            for b in rnet.borders:
                distances = dijkstra_within(adjacency, b)
                rnet.shortcuts[b] = [
                    (other, distances[other])
                    for other in border_set
                    if other != b and other in distances
                ]

    def _build_directory(self) -> None:
        # Every Rnet stores its full vertex set, so one containment pass
        # over objects x hierarchy fills the directory.
        for o in self._dataset.objects():
            containing = [r.index for r in self.rnets if o in r.vertices]
            for keyword in self._dataset.document(o):
                self._directory.setdefault(keyword, set()).update(containing)

    # ------------------------------------------------------------------
    # Core search: keyword-aware Dijkstra with subnet bypassing
    # ------------------------------------------------------------------
    def _search(
        self,
        query: int,
        keywords: Sequence[str],
        on_settle: Callable[[int, float], bool],
    ) -> None:
        """Expand from ``query``; call ``on_settle(v, d)`` per settled
        vertex until it returns False.  Subnets with no object carrying
        any query keyword are crossed via shortcuts."""
        relevant_rnets: set[int] = set()
        for t in keywords:
            relevant_rnets |= self._directory.get(t, set())
        distances: dict[int, float] = {query: 0.0}
        heap: list[tuple[float, int]] = [(0.0, query)]
        settled: set[int] = set()
        neighbors = self._graph.neighbors
        while heap:
            dist_v, v = heapq.heappop(heap)
            if v in settled:
                continue
            settled.add(v)
            if not on_settle(v, dist_v):
                return
            bypass = self._bypassable_rnet(v, query, relevant_rnets)
            if bypass is not None:
                self.bypasses_taken += 1
                inside = self.rnets[bypass].vertices
                for u, d in self.rnets[bypass].shortcuts.get(v, ()):
                    candidate = dist_v + d
                    if candidate < distances.get(u, INFINITY):
                        distances[u] = candidate
                        heapq.heappush(heap, (candidate, u))
                edges = (
                    (u, w) for u, w in neighbors(v) if u not in inside
                )
            else:
                edges = iter(neighbors(v))
            for u, w in edges:
                candidate = dist_v + w
                if candidate < distances.get(u, INFINITY):
                    distances[u] = candidate
                    heapq.heappush(heap, (candidate, u))

    def _bypassable_rnet(
        self, v: int, query: int, relevant: set[int]
    ) -> int | None:
        """The largest Rnet bordered by ``v`` that the search may skip."""
        for index in self._border_rnets.get(v, ()):
            rnet = self.rnets[index]
            if index not in relevant and query not in rnet.vertices:
                return index
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _knn(
        self,
        query: int,
        k: int,
        keywords: Sequence[str],
        conjunctive: bool = False,
    ) -> list[tuple[int, float]]:
        """k nearest objects matching the keyword predicate.

        ROAD's native object search: the directory prunes by *any*
        keyword, so conjunctive filtering happens per-object on settle
        (the aggregation false-positive cost)."""
        keywords = list(dict.fromkeys(keywords))
        if k < 1:
            raise ValueError("k must be positive")
        if not keywords:
            raise ValueError("need at least one query keyword")
        matcher = (
            self._dataset.contains_all if conjunctive else self._dataset.contains_any
        )
        results: list[tuple[int, float]] = []

        def on_settle(v: int, d: float) -> bool:
            if matcher(v, keywords):
                results.append((v, d))
            return len(results) < k

        self._search(query, keywords, on_settle)
        return results

    def _top_k(
        self, query: int, k: int, keywords: Sequence[str]
    ) -> list[tuple[int, float]]:
        """Top-k by weighted distance via bounded network expansion.

        Settles vertices in distance order; since ``score = d / TR`` and
        ``TR <= TR_max``, expansion stops once ``d / TR_max`` exceeds the
        current k-th score."""
        keywords = list(dict.fromkeys(keywords))
        if k < 1:
            raise ValueError("k must be positive")
        if not keywords:
            raise ValueError("need at least one query keyword")
        query_impacts = self._relevance.query_impacts(keywords)
        ceiling = self._relevance.max_textual_relevance(keywords, query_impacts)
        if ceiling <= 0.0:
            return []
        results: list[tuple[float, int]] = []  # max-heap by negation

        def threshold() -> float:
            return -results[0][0] if len(results) == k else INFINITY

        def on_settle(v: int, d: float) -> bool:
            if d / ceiling >= threshold():
                return False
            relevance = self._relevance.textual_relevance(
                keywords, v, query_impacts
            )
            if relevance > 0.0:
                score = d / relevance
                if score < threshold():
                    if len(results) == k:
                        heapq.heapreplace(results, (-score, v))
                    else:
                        heapq.heappush(results, (-score, v))
            return True

        self._search(query, keywords, on_settle)
        ordered = sorted((-negative, o) for negative, o in results)
        return [(o, s) for s, o in ordered]

    def execute(self, query: Query) -> QueryResult:
        """Answer one :class:`repro.api.Query` (the canonical entry point).

        ``kind="bknn"`` maps to ROAD's native keyword-predicate kNN
        search (the directory-pruned expansion); ``kind="topk"`` to the
        bounded-expansion weighted-distance search.
        """
        ensure_supported(query, self.name)
        if query.kind == "bknn":
            pairs = self._knn(
                query.vertex,
                query.k,
                list(query.keywords),
                conjunctive=query.conjunctive,
            )
        else:
            pairs = self._top_k(query.vertex, query.k, list(query.keywords))
        return QueryResult(hits=hits_from_pairs(query.kind, pairs))

    def execute_many(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch of queries in order (sequential reference path)."""
        from repro.api import execute_many_sequential

        return execute_many_sequential(self, queries)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        self.bypasses_taken = 0

    def memory_bytes(self) -> int:
        """Route overlay shortcuts plus association directory."""
        shortcuts = sum(
            len(entries)
            for rnet in self.rnets
            for entries in rnet.shortcuts.values()
        )
        directory = sum(len(rnets) for rnets in self._directory.values())
        return shortcuts * 24 + directory * 12 + len(self.rnets) * 120
