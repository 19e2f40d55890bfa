"""The Query Processor module: BkNN and top-k algorithms (paper §4).

Implements, faithfully to the pseudo-code:

* **Algorithm 1** — disjunctive Boolean kNN over one inverted heap per
  query keyword, ordered by a priority queue of heap MINKEYs.
* **Conjunctive BkNN** (§4.1.2) — a single heap for the least frequent
  query keyword, filtering candidates that miss any keyword *before*
  any network distance is computed.
* **Algorithm 2** — pseudo lower-bound scores per heap.
* **Algorithm 3** — top-k by weighted distance, accessing heaps in
  pseudo-lower-bound order and filtering candidates by their cheap
  ``LB(q,c)/TR(psi,c)`` bound before paying for an exact distance.

Every query records a :class:`QueryStats` snapshot (iterations kappa,
exact distance computations, lower-bound computations, heap insertions)
— the quantities the paper's §5.1 cost model is written in.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.api import Query
from repro.core.heap_generator import HeapGenerator, InvertedHeap
from repro.core.keyword_index import KeywordSeparatedIndex
from repro.distance.base import DistanceOracle
from repro.graph.road_network import RoadNetwork
from repro.obs.trace import span as trace_span
from repro.obs.trace import timed as trace_timed
from repro.text.relevance import RelevanceModel

INFINITY = math.inf


@dataclass
class QueryStats:
    """Per-query operation counts (the paper's §5.1 cost model)."""

    iterations: int = 0  # kappa: candidates examined
    distance_computations: int = 0  # exact network distances (the bottleneck)
    lower_bound_computations: int = 0
    heap_insertions: int = 0
    heaps_created: int = 0

    #: The counter names, in reporting order (mirrored by
    #: ``repro.api.STAT_FIELDS`` for the wire format).
    FIELDS = (
        "iterations",
        "distance_computations",
        "lower_bound_computations",
        "heap_insertions",
        "heaps_created",
    )

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Fold ``other``'s counters into this one; returns self.

        The single merge implementation behind every aggregation site
        (server totals, cluster metrics merge, scatter-gather stats).
        """
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name, 0))
        return self

    def __iadd__(self, other: "QueryStats") -> "QueryStats":
        return self.merge(other)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryStats":
        """Rebuild from a JSON/IPC stats dict (unknown keys ignored)."""
        return cls(**{name: int(payload.get(name, 0)) for name in cls.FIELDS})


@dataclass
class _TopKList:
    """Best-k result accumulator with the running threshold ``D_k``."""

    k: int
    entries: list[tuple[float, int]] = field(default_factory=list)  # max-heap

    def threshold(self) -> float:
        """``D_k``: the k-th best score so far, inf until k results exist."""
        if len(self.entries) < self.k:
            return INFINITY
        return -self.entries[0][0]

    def offer(self, obj: int, score: float) -> None:
        if len(self.entries) < self.k:
            heapq.heappush(self.entries, (-score, obj))
        elif score < -self.entries[0][0]:
            heapq.heapreplace(self.entries, (-score, obj))

    def sorted_results(self) -> list[tuple[int, float]]:
        ordered = sorted(((-negative, obj) for negative, obj in self.entries))
        return [(obj, score) for score, obj in ordered]


class QueryProcessor:
    """K-SPIN spatial keyword query algorithms.

    Parameters
    ----------
    graph:
        The road network (for query-vertex coordinates).
    index:
        The keyword-separated index (per-keyword APX-NVDs).
    relevance:
        Pre-computed impact model for top-k scoring.
    oracle:
        The Network Distance Module (any exact technique).
    heap_generator:
        Factory for on-demand inverted heaps.
    selectivity:
        Optional ``keyword -> estimated |inv(t)|`` hook (an
        :class:`~repro.sketch.registry.IndexSketches` cardinality
        estimate).  Used only to *rank* keywords by rarity for the
        conjunctive planner, so the ranking never walks live-object
        sets; a mis-ranking costs speed, never correctness.  An
        estimate of 0 is trusted as proof of emptiness — the HLL
        no-false-zero invariant: a keyword estimating 0 was never
        inserted, hence provably matches nothing.
    """

    def __init__(
        self,
        graph: RoadNetwork,
        index: KeywordSeparatedIndex,
        relevance: RelevanceModel,
        oracle: DistanceOracle,
        heap_generator: HeapGenerator,
        selectivity: "Callable[[str], int] | None" = None,
    ) -> None:
        self._graph = graph
        self._index = index
        self._relevance = relevance
        self._oracle = oracle
        self._heap_generator = heap_generator
        self._selectivity = selectivity
        self.last_stats = QueryStats()

    def _estimated_size(self, keyword: str) -> int:
        """Estimated ``|inv(t)|`` — sketch-backed when a hook is set."""
        if self._selectivity is not None:
            return self._selectivity(keyword)
        return self._index.inverted_size(keyword)

    def answer(self, query: Query) -> list[tuple[int, float]]:
        """Run the algorithm ``query.kind`` / ``query.mode`` select.

        The one place a :class:`repro.api.Query` is mapped onto
        Algorithm 1, the §4.1.2 conjunctive variant or Algorithm 3;
        every engine's ``execute`` comes through here.
        """
        if query.kind == "bknn":
            return self.bknn(
                query.vertex, query.k, query.keywords, conjunctive=query.conjunctive
            )
        return self.top_k(query.vertex, query.k, query.keywords)

    # ------------------------------------------------------------------
    # Boolean kNN
    # ------------------------------------------------------------------
    def bknn(
        self,
        query: int,
        k: int,
        keywords: Sequence[str],
        conjunctive: bool = False,
    ) -> list[tuple[int, float]]:
        """Boolean kNN query ``(q, k, psi, op)``.

        Returns up to ``k`` ``(object, network_distance)`` pairs in
        ascending distance order; objects satisfy the conjunctive
        (all keywords) or disjunctive (any keyword) criterion.
        """
        keywords = list(dict.fromkeys(keywords))
        if k < 1:
            raise ValueError("k must be positive")
        if not keywords:
            raise ValueError("need at least one query keyword")
        if conjunctive:
            return self._conjunctive_bknn(query, k, keywords)
        return self._disjunctive_bknn(query, k, keywords)

    def _disjunctive_bknn(
        self, query: int, k: int, keywords: list[str]
    ) -> list[tuple[int, float]]:
        """Algorithm 1."""
        stats = QueryStats()
        heaps = self._create_heaps(query, keywords, stats)
        results = _TopKList(k)
        evaluated: set[int] = set()
        with trace_span("processor.search", algorithm="bknn-or"):
            queue: list[tuple[float, int]] = []
            for i, heap in enumerate(heaps):
                if not heap.empty():
                    queue.append((heap.min_key(), i))
            heapq.heapify(queue)
            while queue and queue[0][0] < results.threshold():
                _, i = heapq.heappop(queue)
                popped = heaps[i].pop()
                if not heaps[i].empty():
                    heapq.heappush(queue, (heaps[i].min_key(), i))
                if popped is None:
                    continue
                candidate, _ = popped
                if candidate in evaluated:
                    continue
                evaluated.add(candidate)
                stats.iterations += 1
                with trace_timed("oracle.distance"):
                    distance = self._oracle.distance(query, candidate)
                stats.distance_computations += 1
                if distance < INFINITY:  # unreachable objects are not results
                    results.offer(candidate, distance)
        self._finish_stats(stats, heaps)
        return results.sorted_results()

    def _conjunctive_bknn(
        self, query: int, k: int, keywords: list[str]
    ) -> list[tuple[int, float]]:
        """§4.1.2: scan only the least frequent keyword's heap."""
        stats = QueryStats()
        sizes = {t: self._estimated_size(t) for t in keywords}
        if any(size == 0 for size in sizes.values()):
            self.last_stats = stats
            return []  # some keyword matches no object at all
        rare = min(keywords, key=lambda t: (sizes[t], t))
        heaps = self._create_heaps(query, [rare], stats)
        if not heaps:
            # The rarity estimate was stale (keyword deleted since the
            # sketch was built): no live heap means no conjunctive hit.
            self._finish_stats(stats, heaps)
            return []
        heap = heaps[0]
        results = _TopKList(k)
        with trace_span("processor.search", algorithm="bknn-and"):
            while not heap.empty() and heap.min_key() < results.threshold():
                popped = heap.pop()
                if popped is None:
                    break
                candidate, _ = popped
                stats.iterations += 1
                if not all(self._index.has_keyword(candidate, t) for t in keywords):
                    continue  # filtered without touching the distance oracle
                with trace_timed("oracle.distance"):
                    distance = self._oracle.distance(query, candidate)
                stats.distance_computations += 1
                if distance < INFINITY:
                    results.offer(candidate, distance)
        self._finish_stats(stats, heaps)
        return results.sorted_results()

    # ------------------------------------------------------------------
    # Top-k spatial keyword queries
    # ------------------------------------------------------------------
    def top_k(
        self,
        query: int,
        k: int,
        keywords: Sequence[str],
        use_pseudo_lower_bound: bool = True,
    ) -> list[tuple[int, float]]:
        """Algorithm 3: top-k by weighted distance ``d(q,o)/TR(psi,o)``.

        ``use_pseudo_lower_bound=False`` replaces Algorithm 2's pseudo
        lower-bound with the valid all-unseen bound
        ``MINKEY / TR_max`` — the ablation quantifying the paper's §4.2
        insight.
        """
        keywords = list(dict.fromkeys(keywords))
        if k < 1:
            raise ValueError("k must be positive")
        if not keywords:
            raise ValueError("need at least one query keyword")
        stats = QueryStats()
        query_impacts = self._relevance.query_impacts(keywords)
        heaps = self._create_heaps(query, keywords, stats)
        heap_keywords = [h.keyword for h in heaps]
        results = _TopKList(k)
        processed: set[int] = set()

        def heap_score(i: int) -> float:
            if use_pseudo_lower_bound:
                return self._pseudo_lower_bound(
                    heaps, i, heap_keywords, query_impacts
                )
            return self._valid_lower_bound(heaps[i], keywords, query_impacts)

        with trace_span("processor.search", algorithm="topk"):
            queue: list[tuple[float, int]] = []
            for i, heap in enumerate(heaps):
                if not heap.empty():
                    queue.append((heap_score(i), i))
            heapq.heapify(queue)
            while queue and queue[0][0] < results.threshold():
                _, i = heapq.heappop(queue)
                popped = heaps[i].pop()
                if not heaps[i].empty():
                    heapq.heappush(queue, (heap_score(i), i))
                if popped is None:
                    continue
                candidate, bound = popped
                if candidate in processed:
                    continue
                processed.add(candidate)
                stats.iterations += 1
                relevance = self._textual_relevance(keywords, candidate, query_impacts)
                if relevance <= 0.0:
                    continue
                if bound / relevance > results.threshold():
                    continue  # cheap LB score filter (Algorithm 3, line 10)
                with trace_timed("oracle.distance"):
                    distance = self._oracle.distance(query, candidate)
                stats.distance_computations += 1
                if distance < INFINITY:
                    results.offer(candidate, distance / relevance)
        self._finish_stats(stats, heaps)
        return results.sorted_results()

    def top_k_weighted_sum(
        self,
        query: int,
        k: int,
        keywords: Sequence[str],
        alpha: float = 0.5,
        max_distance: float | None = None,
    ) -> list[tuple[int, float]]:
        """Top-k under the alternative *weighted sum* scorer (§2).

        Score: ``alpha * min(1, d/d_max) + (1 - alpha) * (1 - TR)``,
        lower is better.  K-SPIN's machinery is scorer-agnostic: the
        same pseudo-relevance argument bounds any score monotone
        increasing in distance and decreasing in relevance, so heaps are
        still accessed best-bound-first and results are exact.

        ``max_distance`` must upper-bound every finite network distance;
        the default (total edge weight) is always valid, if loose.
        """
        keywords = list(dict.fromkeys(keywords))
        if k < 1:
            raise ValueError("k must be positive")
        if not keywords:
            raise ValueError("need at least one query keyword")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be within [0, 1]")
        if max_distance is None:
            max_distance = sum(w for _, _, w in self._graph.edges()) or 1.0
        if max_distance <= 0:
            raise ValueError("max_distance must be positive")
        stats = QueryStats()
        query_impacts = self._relevance.query_impacts(keywords)
        heaps = self._create_heaps(query, keywords, stats)
        heap_keywords = [h.keyword for h in heaps]
        results = _TopKList(k)
        processed: set[int] = set()

        def score(distance: float, relevance: float) -> float:
            normalised = min(1.0, distance / max_distance)
            return alpha * normalised + (1.0 - alpha) * (1.0 - relevance)

        def heap_bound(i: int) -> float:
            min_key = heaps[i].min_key()
            if min_key == INFINITY:
                return INFINITY
            pseudo_relevance = 0.0
            for j, keyword in enumerate(heap_keywords):
                if min_key >= heaps[j].min_key():
                    pseudo_relevance += query_impacts.get(
                        keyword, 0.0
                    ) * self._relevance.max_impact(keyword)
            return score(min_key, min(1.0, pseudo_relevance))

        with trace_span("processor.search", algorithm="topk-weighted-sum"):
            queue: list[tuple[float, int]] = []
            for i, heap in enumerate(heaps):
                if not heap.empty():
                    queue.append((heap_bound(i), i))
            heapq.heapify(queue)
            while queue and queue[0][0] < results.threshold():
                _, i = heapq.heappop(queue)
                popped = heaps[i].pop()
                if not heaps[i].empty():
                    heapq.heappush(queue, (heap_bound(i), i))
                if popped is None:
                    continue
                candidate, bound = popped
                if candidate in processed:
                    continue
                processed.add(candidate)
                stats.iterations += 1
                relevance = self._textual_relevance(keywords, candidate, query_impacts)
                if relevance <= 0.0:
                    continue
                if score(bound, relevance) > results.threshold():
                    continue
                with trace_timed("oracle.distance"):
                    distance = self._oracle.distance(query, candidate)
                stats.distance_computations += 1
                if distance < INFINITY:
                    results.offer(candidate, score(distance, relevance))
        self._finish_stats(stats, heaps)
        return results.sorted_results()

    def _pseudo_lower_bound(
        self,
        heaps: list[InvertedHeap],
        i: int,
        heap_keywords: list[str],
        query_impacts: dict[str, float],
    ) -> float:
        """Algorithm 2: pseudo lower-bound score for heap i.

        Assumes an unseen object in heap i contains keyword t_j only if
        ``MINKEY(H_i) >= MINKEY(H_j)`` — objects closer than another
        heap's MINKEY would already have surfaced there.
        """
        with trace_timed("processor.pseudo_lb"):
            min_key = heaps[i].min_key()
            if min_key == INFINITY:
                return INFINITY
            pseudo_relevance = 0.0
            for j, keyword in enumerate(heap_keywords):
                if min_key >= heaps[j].min_key():
                    pseudo_relevance += query_impacts.get(
                        keyword, 0.0
                    ) * self._relevance.max_impact(keyword)
            if pseudo_relevance <= 0.0:
                return INFINITY
            return min_key / pseudo_relevance

    def _valid_lower_bound(
        self,
        heap: InvertedHeap,
        keywords: list[str],
        query_impacts: dict[str, float],
    ) -> float:
        """The valid all-unseen bound ``MINKEY / TR_max`` (§4.2)."""
        min_key = heap.min_key()
        if min_key == INFINITY:
            return INFINITY
        ceiling = self._relevance.max_textual_relevance(keywords, query_impacts)
        if ceiling <= 0.0:
            return INFINITY
        return min_key / ceiling

    def _textual_relevance(
        self, keywords: list[str], obj: int, query_impacts: dict[str, float]
    ) -> float:
        """Actual TR, recomputed from the live document for updated objects."""
        if self._index.is_modified(obj):
            return self._relevance.relevance_from_document(
                self._index.document(obj), query_impacts
            )
        return self._relevance.textual_relevance(keywords, obj, query_impacts)

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def _create_heaps(
        self, query: int, keywords: list[str], stats: QueryStats
    ) -> list[InvertedHeap]:
        with trace_span("processor.heap_generation", keywords=len(keywords)):
            coordinates = self._graph.coordinates(query)
            heaps = []
            for keyword in keywords:
                nvd = self._index.nvd(keyword)
                if nvd is None or not nvd.live_objects():
                    continue
                heaps.append(
                    self._heap_generator.heap_for(keyword, nvd, query, coordinates)
                )
                stats.heaps_created += 1
            return heaps

    def _finish_stats(self, stats: QueryStats, heaps: list[InvertedHeap]) -> None:
        for heap in heaps:
            stats.lower_bound_computations += heap.lower_bound_computations
            stats.heap_insertions += heap.inserted_count
        self.last_stats = stats
