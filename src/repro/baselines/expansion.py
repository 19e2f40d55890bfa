"""Network expansion baseline: index-free Dijkstra with keyword filters.

The classic approach the paper excludes from its main comparison for
being "orders of magnitude slower" (§7.1) — included here both as a
correctness oracle and so the benchmark tables can verify that claim.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from repro import kernels
from repro.api import (
    Query,
    QueryResult,
    ensure_supported,
    hits_from_pairs,
)
from repro.graph.dijkstra import network_expansion_knn
from repro.graph.road_network import RoadNetwork
from repro.text.documents import KeywordDataset
from repro.text.relevance import RelevanceModel

INFINITY = math.inf


class NetworkExpansion:
    """Index-free spatial keyword queries by incremental expansion."""

    name = "Expansion"

    def __init__(self, graph: RoadNetwork, dataset: KeywordDataset) -> None:
        self._graph = graph
        self._dataset = dataset
        self._relevance = RelevanceModel(dataset)

    def _bknn(
        self,
        query: int,
        k: int,
        keywords: Sequence[str],
        conjunctive: bool = False,
    ) -> list[tuple[int, float]]:
        """Boolean kNN by expanding until k matches settle."""
        keywords = list(dict.fromkeys(keywords))
        if k < 1:
            raise ValueError("k must be positive")
        if not keywords:
            raise ValueError("need at least one query keyword")
        matcher = (
            self._dataset.contains_all if conjunctive else self._dataset.contains_any
        )
        return network_expansion_knn(
            self._graph, query, k, lambda v: matcher(v, keywords)
        )

    def _top_k(
        self, query: int, k: int, keywords: Sequence[str]
    ) -> list[tuple[int, float]]:
        """Top-k by expansion with the ``d / TR_max`` stopping rule."""
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

        def score_vertex(v: int, dist_v: float) -> bool:
            """Score one settled vertex; False once ``d / TR_max`` proves
            no later vertex can enter the result heap."""
            if dist_v / ceiling >= threshold():
                return False
            relevance = self._relevance.textual_relevance(
                keywords, v, query_impacts
            )
            if relevance > 0.0:
                score = dist_v / relevance
                if score < threshold():
                    if len(results) == k:
                        heapq.heapreplace(results, (-score, v))
                    else:
                        heapq.heappush(results, (-score, v))
            return True

        # One C-level SSSP, then scan vertices in settle order (a stable
        # argsort reproduces a heap's (distance, vertex) tie-breaking)
        # applying the stopping rule.
        csr = self._graph.csr()
        all_distances = kernels.sssp(csr, query, kernels.get_workspace(csr.num_vertices))
        for v in np.argsort(all_distances, kind="stable").tolist():
            dist_v = float(all_distances[v])
            if math.isinf(dist_v) or not score_vertex(v, dist_v):
                break
        ordered = sorted((-negative, o) for negative, o in results)
        return [(o, s) for s, o in ordered]

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

    def memory_bytes(self) -> int:
        return 0  # uses only the input graph and dataset
