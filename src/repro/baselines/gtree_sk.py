"""G-tree spatial keyword baseline: keyword *aggregation* (paper §1.1, §7.4).

This is the state-of-the-art competitor the paper argues against.  Each
G-tree node aggregates its subtree's keywords into a *pseudo-document*
(keyword -> occurrence count and maximum impact) plus an *occurrence
list* of children containing objects.  Queries traverse the hierarchy
best-first by minimum network distance (BkNN) or by an aggregated score
bound (top-k), pruning nodes whose pseudo-documents cannot match.

Three variants are provided, mirroring §7.4:

* ``GTreeSpatialKeyword`` — the original algorithm with one occurrence
  list per node;
* ``optimized=True`` ("Gtree-Opt") — keyword-separated occurrence
  lists, pruning children that contain none of the query keywords
  without consulting pseudo-documents.  As the paper shows, this saves
  pseudo-document look-ups but **not** matrix operations: the aggregation
  hierarchy is still evaluated to the same depth;
* KS-GT is *not* here — it is :class:`repro.core.KSpin` with a
  :class:`repro.distance.GTree` oracle plugged in.

``pseudo_document_lookups`` and the underlying G-tree's
``matrix_operations`` are the cost counters behind Figures 15 and 16.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

from repro.api import (
    Query,
    QueryResult,
    ensure_supported,
    hits_from_pairs,
)
from repro.distance.gtree import GTree
from repro.graph.road_network import RoadNetwork
from repro.text.documents import KeywordDataset
from repro.text.relevance import RelevanceModel

INFINITY = math.inf


class GTreeSpatialKeyword:
    """Keyword-aggregated spatial keyword queries over a G-tree.

    Parameters
    ----------
    graph, dataset:
        The road network and its keyword dataset.
    gtree:
        A pre-built :class:`GTree`; built on demand when omitted.
    optimized:
        Use per-keyword occurrence lists (the paper's Gtree-Opt).
    """

    name = "G-tree SK"

    def __init__(
        self,
        graph: RoadNetwork,
        dataset: KeywordDataset,
        gtree: GTree | None = None,
        optimized: bool = False,
        leaf_size: int = 32,
    ) -> None:
        graph._require_symmetric(type(self).__name__)
        self._graph = graph
        self._dataset = dataset
        self.gtree = gtree if gtree is not None else GTree(graph, leaf_size=leaf_size)
        self.optimized = optimized
        if optimized:
            self.name = "Gtree-Opt"
        self._relevance = RelevanceModel(dataset)
        self.pseudo_document_lookups = 0
        # Per-node aggregation: keyword -> (count, max impact) and the
        # objects held by each leaf.
        self._pseudo_documents: list[dict[str, tuple[int, float]]] = []
        self._leaf_objects: dict[int, list[int]] = {}
        # occurrence lists: node -> children-with-objects; optimized
        # adds node -> keyword -> children-with-that-keyword.
        self._occurrence: list[set[int]] = []
        self._keyword_occurrence: list[dict[str, set[int]]] = []
        self._aggregate()

    # ------------------------------------------------------------------
    # Index construction (keyword aggregation)
    # ------------------------------------------------------------------
    def _aggregate(self) -> None:
        nodes = self.gtree.nodes
        self._pseudo_documents = [dict() for _ in nodes]
        self._occurrence = [set() for _ in nodes]
        self._keyword_occurrence = [dict() for _ in nodes]
        object_set = set(self._dataset.objects())
        for node in sorted(nodes, key=lambda n: -n.depth):
            if node.is_leaf:
                members = sorted(object_set.intersection(node.vertices))
                self._leaf_objects[node.index] = members
                pseudo: dict[str, tuple[int, float]] = {}
                for o in members:
                    for keyword, frequency in self._dataset.document(o).items():
                        count, impact = pseudo.get(keyword, (0, 0.0))
                        pseudo[keyword] = (
                            count + frequency,
                            max(impact, self._relevance.object_impact(o, keyword)),
                        )
                self._pseudo_documents[node.index] = pseudo
            else:
                pseudo = {}
                for child in node.children:
                    child_pseudo = self._pseudo_documents[child]
                    if child_pseudo:
                        self._occurrence[node.index].add(child)
                    for keyword, (count, impact) in child_pseudo.items():
                        total, best = pseudo.get(keyword, (0, 0.0))
                        pseudo[keyword] = (total + count, max(best, impact))
                        self._keyword_occurrence[node.index].setdefault(
                            keyword, set()
                        ).add(child)
                self._pseudo_documents[node.index] = pseudo

    # ------------------------------------------------------------------
    # Pruning helpers
    # ------------------------------------------------------------------
    def _node_matches(
        self, node_index: int, keywords: Sequence[str], conjunctive: bool
    ) -> bool:
        """Pseudo-document check: can this subtree contain a match?

        Aggregation makes this a *necessary* condition only — the false
        positive source the paper§1.1 dissects.
        """
        self.pseudo_document_lookups += 1
        pseudo = self._pseudo_documents[node_index]
        if conjunctive:
            return all(t in pseudo for t in keywords)
        return any(t in pseudo for t in keywords)

    def _promising_children(
        self, node_index: int, keywords: Sequence[str], conjunctive: bool
    ) -> list[int]:
        """Children worth descending into, per the configured variant."""
        if self.optimized:
            # Gtree-Opt: keyword-separated occurrence lists prune childless
            # children without any pseudo-document look-up (§7.4.1).
            occurrence = self._keyword_occurrence[node_index]
            if conjunctive:
                candidate_sets = [occurrence.get(t, set()) for t in keywords]
                if not candidate_sets or not all(candidate_sets):
                    return []
                children = set.intersection(*candidate_sets)
            else:
                children = set()
                for t in keywords:
                    children |= occurrence.get(t, set())
            return sorted(children)
        children = [
            child
            for child in self._occurrence[node_index]
            if self._node_matches(child, keywords, conjunctive)
        ]
        return sorted(children)

    def _max_relevance_bound(
        self, node_index: int, query_impacts: dict[str, float]
    ) -> float:
        """Upper bound on TR of any object in the subtree (aggregated)."""
        self.pseudo_document_lookups += 1
        pseudo = self._pseudo_documents[node_index]
        return sum(
            weight * pseudo[t][1]
            for t, weight in query_impacts.items()
            if t in pseudo
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _bknn(
        self,
        query: int,
        k: int,
        keywords: Sequence[str],
        conjunctive: bool = False,
    ) -> list[tuple[int, float]]:
        """Boolean kNN via aggregated best-first hierarchy traversal."""
        keywords = list(dict.fromkeys(keywords))
        if k < 1:
            raise ValueError("k must be positive")
        if not keywords:
            raise ValueError("need at least one query keyword")
        self.gtree.clear_cache()
        matcher = (
            self._dataset.contains_all if conjunctive else self._dataset.contains_any
        )
        results: list[tuple[float, int]] = []  # max-heap via negation

        def threshold() -> float:
            return -results[0][0] if len(results) == k else INFINITY

        queue: list[tuple[float, int]] = []
        root = 0
        if self._node_matches(root, keywords, conjunctive):
            heapq.heappush(queue, (0.0, root))
        while queue and queue[0][0] < threshold():
            _, node_index = heapq.heappop(queue)
            node = self.gtree.nodes[node_index]
            if node.is_leaf:
                for o in self._leaf_objects[node_index]:
                    if not matcher(o, keywords):
                        continue
                    distance = self.gtree.distance(query, o)
                    if distance < threshold():
                        if len(results) == k:
                            heapq.heapreplace(results, (-distance, o))
                        else:
                            heapq.heappush(results, (-distance, o))
                continue
            for child in self._promising_children(node_index, keywords, conjunctive):
                bound = self.gtree.min_distance_to_node(query, child)
                if bound < threshold():
                    heapq.heappush(queue, (bound, child))
        ordered = sorted((-negative, o) for negative, o in results)
        return [(o, d) for d, o in ordered]

    def _top_k(
        self, query: int, k: int, keywords: Sequence[str]
    ) -> list[tuple[int, float]]:
        """Top-k by weighted distance via aggregated score bounds."""
        keywords = list(dict.fromkeys(keywords))
        if k < 1:
            raise ValueError("k must be positive")
        if not keywords:
            raise ValueError("need at least one query keyword")
        self.gtree.clear_cache()
        query_impacts = self._relevance.query_impacts(keywords)
        results: list[tuple[float, int]] = []

        def threshold() -> float:
            return -results[0][0] if len(results) == k else INFINITY

        queue: list[tuple[float, int]] = []
        root_bound = self._score_bound(query, 0, query_impacts)
        if root_bound < INFINITY:
            heapq.heappush(queue, (root_bound, 0))
        while queue and queue[0][0] < threshold():
            _, node_index = heapq.heappop(queue)
            node = self.gtree.nodes[node_index]
            if node.is_leaf:
                for o in self._leaf_objects[node_index]:
                    relevance = self._relevance.textual_relevance(
                        keywords, o, query_impacts
                    )
                    if relevance <= 0.0:
                        continue
                    score = self.gtree.distance(query, o) / relevance
                    if score < threshold():
                        if len(results) == k:
                            heapq.heapreplace(results, (-score, o))
                        else:
                            heapq.heappush(results, (-score, o))
                continue
            for child in self._promising_children(node_index, keywords, False):
                bound = self._score_bound(query, child, query_impacts)
                if bound < threshold():
                    heapq.heappush(queue, (bound, child))
        ordered = sorted((-negative, o) for negative, o in results)
        return [(o, s) for s, o in ordered]

    def _score_bound(
        self, query: int, node_index: int, query_impacts: dict[str, float]
    ) -> float:
        """Lower bound on any subtree object's score: mindist / TR_max."""
        relevance_bound = self._max_relevance_bound(node_index, query_impacts)
        if relevance_bound <= 0.0:
            return INFINITY
        distance_bound = self.gtree.min_distance_to_node(query, node_index)
        return distance_bound / relevance_bound

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Zero the pseudo-document and matrix-operation counters."""
        self.pseudo_document_lookups = 0
        self.gtree.reset_counters()

    def execute(self, query: Query) -> QueryResult:
        """Answer one :class:`repro.api.Query` (the canonical entry point)."""
        ensure_supported(query, self.name)
        if query.kind == "bknn":
            pairs = self._bknn(
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

    @property
    def matrix_operations(self) -> int:
        """Matrix look-up-and-sums spent (Figure 16's metric)."""
        return self.gtree.matrix_operations

    def memory_bytes(self) -> int:
        """G-tree matrices plus aggregated keyword structures."""
        per_entry = 90
        pseudo = sum(len(p) for p in self._pseudo_documents)
        occurrence = sum(len(o) for o in self._occurrence)
        keyword_occurrence = sum(
            len(children)
            for per_node in self._keyword_occurrence
            for children in per_node.values()
        )
        return (
            self.gtree.memory_bytes()
            + (pseudo + occurrence + keyword_occurrence) * per_entry
        )
