"""The Heap Generator module: on-demand inverted heaps (paper §3, §5).

An :class:`InvertedHeap` for keyword ``t`` yields the objects of
``inv(t)`` in ascending order of their lower-bound network distance from
the query vertex, maintaining **Property 1** at all times:

    given the current top object ``o`` with bound ``LB(q, o)``, every
    object containing ``t`` that has not yet been extracted has true
    network distance ``d(q, o_t) >= LB(q, o)``.

The heap is populated *lazily* (Theorem 1): it is seeded with the <= ρ
candidates from the keyword's APX-NVD — a set guaranteed to contain the
query's 1NN — and each extraction triggers LAZYREHEAP (Algorithm 4),
which inserts the extracted object's NVD-adjacent objects.

Tombstoned (deleted) objects still route expansion but are never
reported (paper §6.2, Object Deletion).

Thread safety
-------------
:class:`HeapGenerator` is stateless and :class:`InvertedHeap` is
per-query (all mutation — ``_heap``, ``_inserted``, the counters — is
confined to the creating thread), so concurrent queries never share a
heap.  What heaps *read* is shared: the keyword's
:class:`~repro.nvd.approximate.ApproximateNVD` (``seed_objects``,
``neighbors``, ``is_deleted`` iterate its sets) and the lower bounder.
Those reads are only safe while no update is mutating the same diagram;
the serving layer (:class:`repro.serve.Engine`) guarantees this with a
readers-writer lock — queries in read mode, §6.2 updates in write mode.
Library users mixing threads must do the same.
"""

from __future__ import annotations

import heapq
import math

from repro.lowerbound.base import LowerBounder
from repro.nvd.approximate import ApproximateNVD
from repro.obs.trace import timed as trace_timed

INFINITY = math.inf


class InvertedHeap:
    """On-demand inverted heap for one query keyword.

    Parameters
    ----------
    keyword:
        The keyword this heap serves (for diagnostics).
    nvd:
        The keyword's APX-NVD (seeds + adjacency expansion).
    query_vertex:
        The query location ``q``.
    query_coordinates:
        Planar coordinates of ``q`` (for quadtree point location).
    lower_bounder:
        The Lower Bounding Module; every heap key is
        ``lower_bounder.lower_bound(q, object)``.

    Notes
    -----
    ``lower_bound_computations`` counts LB evaluations *per pair* —
    the cheap operation the paper's complexity analysis (§5.1) charges
    at ``O(m)`` each — so a batched call over ``b`` objects adds ``b``,
    keeping the counter comparable across backends.
    """

    #: Keys are lower bounds; the Query Processor still needs ``d(q, o)``.
    exact = False

    def __init__(
        self,
        keyword: str,
        nvd: ApproximateNVD,
        query_vertex: int,
        query_coordinates: tuple[float, float],
        lower_bounder: LowerBounder,
    ) -> None:
        self.keyword = keyword
        self._nvd = nvd
        self._query = query_vertex
        self._lower_bounder = lower_bounder
        self._heap: list[tuple[float, int]] = []
        self._inserted: set[int] = set()
        self.lower_bound_computations = 0
        self.extractions = 0
        # One vectorised lower_bounds_to_many call seeds the whole
        # ρ-candidate set (Theorem 1) instead of one LB per insert.
        self._insert_batch(nvd.seed_objects(query_coordinates))

    def _insert_batch(self, objects: list[int]) -> None:
        """Insert every not-yet-seen object with one batched LB call.

        The batch is timed as a single ``lb.compute`` region so tracing
        overhead stays out of the per-pair inner loop; the counter still
        advances once per pair (see class notes).
        """
        fresh = [obj for obj in objects if obj not in self._inserted]
        if not fresh:
            return
        self._inserted.update(fresh)
        with trace_timed("lb.compute"):
            bounds = self._lower_bounder.lower_bounds_to_many(self._query, fresh)
        self.lower_bound_computations += len(fresh)
        for obj, bound in zip(fresh, bounds):
            heapq.heappush(self._heap, (bound, obj))

    # ------------------------------------------------------------------
    # Heap interface used by the Query Processor
    # ------------------------------------------------------------------
    def empty(self) -> bool:
        """Whether no objects remain (live or tombstoned)."""
        return not self._heap

    def min_key(self) -> float:
        """``MINKEY(H)`` — the top object's lower bound; inf when empty."""
        return self._heap[0][0] if self._heap else INFINITY

    def pop(self) -> tuple[int, float] | None:
        """Extract the next *live* object and its lower bound.

        Runs LAZYREHEAP (Algorithm 4) after every extraction so
        Property 1 keeps holding; extraction passes straight through
        tombstoned objects, expanding their adjacency without reporting
        them.  Returns ``None`` when exhausted.
        """
        while self._heap:
            bound, obj = heapq.heappop(self._heap)
            self.extractions += 1
            self._lazy_reheap(obj)
            if not self._nvd.is_deleted(obj):
                return obj, bound
        return None

    def _lazy_reheap(self, extracted: int) -> None:
        """Algorithm 4: insert the extracted object's adjacent objects.

        The whole adjacency batch goes through one
        ``lower_bounds_to_many`` call — NVD adjacency degree is a small
        constant (Observation 2a), but the batch still amortises the
        numpy slicing the ALT bounder does per call.
        """
        with trace_timed("heap.lazy_reheap"):
            self._insert_batch(self._nvd.neighbors(extracted))

    @property
    def inserted_count(self) -> int:
        """Objects inserted so far (lazy population keeps this small)."""
        return len(self._inserted)


class HeapGenerator:
    """Factory producing :class:`InvertedHeap` instances per keyword.

    Thin by design: all state lives in the keyword-separated index and
    in each heap; the generator just wires a query location to them.
    """

    def __init__(self, lower_bounder: LowerBounder) -> None:
        self._lower_bounder = lower_bounder

    def heap_for(
        self,
        keyword: str,
        nvd: ApproximateNVD,
        query_vertex: int,
        query_coordinates: tuple[float, float],
    ) -> InvertedHeap:
        """Create an on-demand inverted heap for one query keyword."""
        return InvertedHeap(
            keyword, nvd, query_vertex, query_coordinates, self._lower_bounder
        )

    def invalidate(self, keywords: list[str] | None = None) -> None:
        """Forget anything derived from ``keywords``' diagrams (they were
        rebuilt).  Nothing here; label seeding overrides it."""
