"""The Query Processor module: BkNN and top-k algorithms (paper §4).

The paper's query algorithms are one best-first search over on-demand
inverted heaps, and :meth:`QueryProcessor._search` is that loop.  Its
parameters give, faithfully to the pseudo-code:

* **Algorithm 1** — disjunctive Boolean kNN over one inverted heap per
  query keyword, ordered by a priority queue of heap MINKEYs.
* **Conjunctive BkNN** (§4.1.2) — a single heap for the least frequent
  query keyword, filtering candidates that miss any keyword *before*
  any network distance is computed; and its generalisation to an AND
  of OR-groups (§2 remark), which scans the cheapest group.
* **Algorithm 2** — pseudo lower-bound scores per heap.
* **Algorithm 3** — top-k by weighted distance, accessing heaps in
  pseudo-lower-bound order and filtering candidates by their cheap
  ``LB(q,c)/TR(psi,c)`` bound before paying for an exact distance;
  the weighted-sum scorer of §2 is the same search under another
  ``score``.

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
        (server totals, cluster metrics merge).
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


def _weighted_distance(distance: float, relevance: float) -> float:
    """Eq. 1: ``d / TR``; nothing scores against zero relevance."""
    return distance / relevance if relevance > 0.0 else INFINITY


def _pseudo_relevance(
    heaps: list[InvertedHeap], i: int, weights: list[float]
) -> float:
    """Algorithm 2: the most an unseen object of heap i can be worth.

    Such an object can carry keyword t_j only if ``MINKEY(H_i) >=
    MINKEY(H_j)`` — anything closer than another heap's MINKEY would
    already have surfaced there.  ``weights[j]`` is
    ``lambda_{t_j,psi} * lambda_{t_j,max}``.
    """
    min_key = heaps[i].min_key()
    relevance = 0.0
    for heap, weight in zip(heaps, weights):
        if min_key >= heap.min_key():
            relevance += weight
    return relevance


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
    """

    def __init__(
        self,
        graph: RoadNetwork,
        index: KeywordSeparatedIndex,
        relevance: RelevanceModel,
        oracle: DistanceOracle,
        heap_generator: HeapGenerator,
    ) -> None:
        self._graph = graph
        self._index = index
        self._relevance = relevance
        self._oracle = oracle
        self._heap_generator = heap_generator
        self.last_stats = QueryStats()

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
    # The public parameterisations of the one search loop
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
        if conjunctive:
            return self._search(query, k, [(t,) for t in keywords], "bknn-and")
        return self._search(query, k, [keywords], "bknn-or")

    def bknn_cnf(
        self, query: int, k: int, groups: Sequence[Sequence[str]]
    ) -> list[tuple[int, float]]:
        """BkNN under an AND of OR-groups (paper §2 remark)."""
        return self._search(query, k, groups, "bknn-cnf")

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
        return self._search(
            query, k, [keywords], "topk", _weighted_distance, use_pseudo_lower_bound
        )

    def top_k_cnf(
        self, query: int, k: int, groups: Sequence[Sequence[str]]
    ) -> list[tuple[int, float]]:
        """Top-k by weighted distance among objects matching a CNF filter.

        Ranks with ``d(q,o)/TR(psi,o)``, psi being every keyword the
        groups mention.
        """
        return self._search(query, k, groups, "topk-cnf", _weighted_distance)

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
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be within [0, 1]")
        if max_distance is None:
            max_distance = sum(w for _, _, w in self._graph.edges()) or 1.0
        if max_distance <= 0:
            raise ValueError("max_distance must be positive")

        def score(distance: float, relevance: float) -> float:
            # TR is a cosine, so the clamp only ever bites on a pseudo
            # relevance, where it tightens the bound.
            return alpha * min(1.0, distance / max_distance) + (1.0 - alpha) * (
                1.0 - min(1.0, relevance)
            )

        return self._search(query, k, [keywords], "topk-weighted-sum", score)

    # ------------------------------------------------------------------
    # The search loop
    # ------------------------------------------------------------------
    def _search(
        self,
        query: int,
        k: int,
        groups: Sequence[Sequence[str]],
        algorithm: str,
        score: "Callable[[float, float], float] | None" = None,
        pseudo: bool = True,
    ) -> list[tuple[int, float]]:
        """Best-first search for the ``k`` best objects matching an AND
        of OR-``groups``: Algorithm 1, the §4.1.2 conjunctive scan and
        Algorithm 3 are this loop under different parameters.

        Only the cheapest group's heaps are opened (every match carries
        one of its keywords, so Property 1 covers the matches); a popped
        candidate is tested against the other groups, then against its
        cheap bound ``score(LB, TR)``, and only then costs an exact
        distance.  ``score(distance, relevance)`` must grow with
        distance and shrink with relevance; ``None`` ranks by distance
        alone.  A scan that covers every ranked keyword (one group)
        bounds each heap by Algorithm 2's pseudo relevance unless
        ``pseudo`` is false; any other scan uses ``TR_max``.
        """
        if k < 1:
            raise ValueError("k must be positive")
        groups = list(dict.fromkeys(tuple(dict.fromkeys(g)) for g in groups))
        if not groups or not all(groups):
            raise ValueError("need at least one query keyword")
        stats = QueryStats()
        scan = groups[0]
        if len(groups) > 1:
            sizes = [sum(map(self._index.inverted_size, g)) for g in groups]
            if 0 in sizes:
                self.last_stats = stats
                return []  # some clause matches no object at all
            scan = min(zip(sizes, groups))[1]
        others = [g for g in groups if g != scan]
        if score is not None:
            keywords = list(dict.fromkeys(t for g in groups for t in g))
            impacts = self._relevance.query_impacts(keywords)
        # A scanned keyword with no live object just opens no heap.
        heaps = self._create_heaps(query, scan, stats)
        if score is None:
            key = None
        elif pseudo and not others:
            weights = [
                impacts.get(heap.keyword, 0.0)
                * self._relevance.max_impact(heap.keyword)
                for heap in heaps
            ]

            def key(i: int) -> float:
                with trace_timed("processor.pseudo_lb"):
                    return score(heaps[i].min_key(), _pseudo_relevance(heaps, i, weights))
        else:
            ceiling = self._relevance.max_textual_relevance(keywords, impacts)

            def key(i: int) -> float:
                return score(heaps[i].min_key(), ceiling)

        has_keyword = self._index.has_keyword
        results = _TopKList(k)
        evaluated: set[int] = set()
        with trace_span("processor.search", algorithm=algorithm):

            def keyed_heaps() -> list[tuple[float, int]]:
                queue = [
                    (heap.min_key() if key is None else key(i), i)
                    for i, heap in enumerate(heaps)
                    if not heap.empty()
                ]
                heapq.heapify(queue)
                return queue

            queue = keyed_heaps()
            while queue and queue[0][0] < results.threshold():
                i = queue[0][1]
                heap = heaps[i]
                floor = None if key is None else heap.min_key()
                popped = heap.pop()
                if floor is not None and heap.min_key() < floor:
                    # Lazy expansion lowered this MINKEY, so it may now
                    # count towards another heap's pseudo relevance: the
                    # queued keys of the other heaps can be too high.
                    queue = keyed_heaps()
                elif heap.empty():
                    heapq.heappop(queue)
                else:
                    heapq.heapreplace(
                        queue, (heap.min_key() if key is None else key(i), i)
                    )
                if popped is None:
                    continue
                candidate, bound = popped
                if candidate in evaluated:
                    continue
                evaluated.add(candidate)
                stats.iterations += 1
                matched = True
                for group in others:
                    for t in group:
                        if has_keyword(candidate, t):
                            break
                    else:
                        matched = False
                        break
                if not matched:
                    continue  # filtered without touching the distance oracle
                if score is not None:
                    relevance = self._textual_relevance(keywords, candidate, impacts)
                    if relevance <= 0.0:
                        continue
                    if score(bound, relevance) > results.threshold():
                        continue  # cheap LB score filter (Algorithm 3, line 10)
                if heap.exact:
                    distance = bound  # the heap's key is d(q, c) already
                else:
                    with trace_timed("oracle.distance"):
                        distance = self._oracle.distance(query, candidate)
                    stats.distance_computations += 1
                if distance < INFINITY:  # unreachable objects are not results
                    results.offer(
                        candidate,
                        distance if score is None else score(distance, relevance),
                    )
        self._finish_stats(stats, heaps)
        return results.sorted_results()

    def _pseudo_lower_bound(
        self,
        heaps: list[InvertedHeap],
        i: int,
        heap_keywords: list[str],
        query_impacts: dict[str, float],
    ) -> float:
        """Algorithm 2's score for heap i under weighted distance."""
        weights = [
            query_impacts.get(t, 0.0) * self._relevance.max_impact(t)
            for t in heap_keywords
        ]
        return _weighted_distance(
            heaps[i].min_key(), _pseudo_relevance(heaps, i, weights)
        )

    def _valid_lower_bound(
        self,
        heap: InvertedHeap,
        keywords: list[str],
        query_impacts: dict[str, float],
    ) -> float:
        """The valid all-unseen bound ``MINKEY / TR_max`` (§4.2)."""
        return _weighted_distance(
            heap.min_key(),
            self._relevance.max_textual_relevance(keywords, query_impacts),
        )

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
                if nvd is None or not nvd.live_count():
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
