"""K-SPIN over directed road networks.

The framework's modularity pays off here: the *same* query processor
(Algorithms 1-3, pseudo lower bounds and all) runs unchanged, because
its three dependencies are interface-level:

* the graph only supplies query-vertex coordinates,
* the keyword index supplies per-keyword NVDs with
  ``seed_objects`` / ``neighbors`` / ``is_deleted``, and
* the oracle supplies exact (now directional) distances.

This module provides the directed implementations of the latter two and
a :class:`DirectedKSpin` facade mirroring :class:`repro.core.KSpin`'s
query surface.  Updates: deletions are lazy tombstones; insertions
rebuild the affected keyword's diagram (no directed Theorem-2 pruning —
see the module docs of :mod:`repro.directed.nvd`).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.heap_generator import HeapGenerator
from repro.core.query_processor import QueryProcessor, QueryStats
from repro.directed.alt import DirectedAltLowerBounder
from repro.directed.dijkstra import directed_distance
from repro.directed.graph import DirectedRoadNetwork
from repro.directed.nvd import DirectedApproximateNVD
from repro.distance.base import DistanceOracle
from repro.lowerbound.base import LowerBounder
from repro.text.documents import KeywordDataset
from repro.text.relevance import RelevanceModel


class DirectedDijkstraOracle(DistanceOracle):
    """Exact directional distances by early-terminating Dijkstra."""

    name = "Dijkstra-directed"

    def __init__(self, graph: DirectedRoadNetwork) -> None:
        super().__init__()
        self._graph = graph

    def distance(self, source: int, target: int) -> float:
        self.query_count += 1
        return directed_distance(self._graph, source, target)

    def memory_bytes(self) -> int:
        return 0


class DirectedKeywordIndex:
    """Per-keyword directed APX-NVDs with the core index's read API."""

    def __init__(
        self,
        graph: DirectedRoadNetwork,
        dataset: KeywordDataset,
        rho: int = 5,
    ) -> None:
        self._graph = graph
        self._dataset = dataset
        self.rho = rho
        self._nvds: dict[str, DirectedApproximateNVD] = {
            keyword: DirectedApproximateNVD.build(
                graph, list(dataset.inverted_list(keyword)), rho=rho, keyword=keyword
            )
            for keyword in dataset.keywords()
        }

    def nvd(self, keyword: str) -> DirectedApproximateNVD | None:
        return self._nvds.get(keyword)

    def keywords(self) -> tuple[str, ...]:
        return tuple(sorted(self._nvds))

    def inverted_size(self, keyword: str) -> int:
        nvd = self._nvds.get(keyword)
        return len(nvd.live_objects()) if nvd else 0

    def has_keyword(self, obj: int, keyword: str) -> bool:
        if not self._dataset.contains(obj, keyword):
            return False
        nvd = self._nvds.get(keyword)
        return nvd is not None and not nvd.is_deleted(obj)

    def is_modified(self, obj: int) -> bool:
        return False  # documents are immutable; deletion hides whole objects

    def document(self, obj: int) -> dict[str, int]:
        if not self._dataset.is_object(obj):
            return {}
        return self._dataset.document(obj)

    def delete_object(self, obj: int) -> None:
        """Tombstone ``obj`` in every keyword diagram listing it."""
        keywords = list(self._dataset.document(obj)) if self._dataset.is_object(obj) else []
        if not keywords:
            raise KeyError(f"object {obj} has no document")
        for keyword in keywords:
            nvd = self._nvds.get(keyword)
            if nvd is not None and obj in nvd.objects:
                nvd.delete_object(obj)

    def memory_bytes(self) -> int:
        return sum(nvd.memory_bytes() for nvd in self._nvds.values())


class DirectedKSpin:
    """K-SPIN facade for directed road networks.

    Supports the paper's full query surface (disjunctive/conjunctive
    BkNN and top-k with pseudo lower bounds), with distances measured
    *from the query to the object* along directed arcs.
    """

    def __init__(
        self,
        graph: DirectedRoadNetwork,
        dataset: KeywordDataset,
        oracle: DistanceOracle | None = None,
        lower_bounder: LowerBounder | None = None,
        rho: int = 5,
    ) -> None:
        self.graph = graph
        self.dataset = dataset
        self.oracle = oracle or DirectedDijkstraOracle(graph)
        self.lower_bounder = lower_bounder or DirectedAltLowerBounder(graph)
        self.relevance = RelevanceModel(dataset)
        self.index = DirectedKeywordIndex(graph, dataset, rho=rho)
        self.heap_generator = HeapGenerator(self.lower_bounder)
        # The undirected query processor runs unchanged: all its graph /
        # index / oracle interactions are interface-level.
        self.processor = QueryProcessor(
            graph,  # type: ignore[arg-type] - duck-typed: coordinates()
            self.index,  # type: ignore[arg-type] - duck-typed read API
            self.relevance,
            self.oracle,
            self.heap_generator,
        )

    def execute(self, query):
        """Answer one :class:`repro.api.Query` (unified surface).

        Same contract as :meth:`repro.core.framework.KSpin.execute`,
        with distances measured along directed arcs.
        """
        from repro.api import (
            QueryResult,
            ensure_supported,
            hits_from_pairs,
            stats_to_dict,
        )

        ensure_supported(query, "DirectedKSpin")
        from repro.obs.trace import span as trace_span

        with trace_span("directed.execute", kind=query.kind):
            pairs = self.processor.answer(query)
        return QueryResult(
            hits=hits_from_pairs(query.kind, pairs),
            stats=stats_to_dict(self.processor.last_stats),
        )

    def boolean_bknn(
        self, query: int, k: int, groups: Sequence[Sequence[str]]
    ) -> list[tuple[int, float]]:
        """Directed BkNN under a mixed AND/OR expression in CNF."""
        from repro.core.boolean_query import BooleanExpression, boolean_bknn

        return boolean_bknn(self.processor, query, k, BooleanExpression(groups))

    def delete_object(self, obj: int) -> None:
        """Tombstone a POI; queries stay exact."""
        self.index.delete_object(obj)

    @property
    def last_stats(self) -> QueryStats:
        return self.processor.last_stats

    def memory_bytes(self) -> int:
        return self.index.memory_bytes() + self.lower_bounder.memory_bytes()
