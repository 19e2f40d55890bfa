"""Label-backed heap seeding: hub-label kNN behind the InvertedHeap API.

The default Heap Generator seeds each keyword heap from the keyword's
APX-NVD and expands adjacency lazily, paying one lower-bound evaluation
per candidate.  This module replaces that candidate *generation* with
forward scans of the query's 2-hop label over per-keyword object labels
(:class:`~repro.distance.object_labels.KeywordLabelIndex`): a k-way
merge of per-hub streams keyed by ``d(q, h) + d(h, o)``.

Because the labels are a 2-hop cover, the first occurrence of an object
in the merged stream carries its **exact** network distance — which is
in particular a valid lower bound, so Property 1 (paper §3) holds and
:class:`LabelHeap` is a drop-in for
:class:`~repro.core.heap_generator.InvertedHeap` in every query
algorithm.  Later duplicate occurrences (same object via a farther hub)
are skipped.

Freshness and fallback
----------------------
Object labels snapshot one diagram instance.  On every ``heap_for``
call the generator checks ``KeywordLabelIndex.is_fresh`` — same
:class:`~repro.nvd.approximate.ApproximateNVD` instance, zero pending
lazy updates — and silently falls back to the classic NVD-seeded heap
when the check fails, so updates (§6.2) keep exact semantics without
any coordination.  A stale cache entry is dropped and rebuilt the next
time the diagram is clean (after
a ``rebuild`` :class:`~repro.api.UpdateOp` swaps in a rebuilt
diagram).

Thread safety matches the rest of the serving stack: heaps are
per-query, the caches are only (re)built from diagram state that the
engine's readers-writer lock already freezes during queries, and a
concurrent double-build is idempotent.
"""

from __future__ import annotations

import heapq
import math

from repro.core.heap_generator import HeapGenerator, InvertedHeap
from repro.distance.hub_labeling import HubLabeling
from repro.distance.object_labels import KeywordLabelIndex
from repro.lowerbound.base import LowerBounder
from repro.nvd.approximate import ApproximateNVD
from repro.obs.trace import timed as trace_timed

INFINITY = math.inf


class LabelHeap:
    """Keyword heap over hub-label streams (InvertedHeap drop-in).

    Entries are ``(key, slot, position)`` cursors, one per open hub
    stream; advancing a cursor costs one array read, no graph state.
    ``pop`` returns ``(object, exact distance)`` in ascending exact
    distance order, skipping tombstoned objects.
    """

    def __init__(
        self,
        keyword: str,
        nvd: ApproximateNVD,
        query_vertex: int,
        labeling: HubLabeling,
        index: KeywordLabelIndex,
    ) -> None:
        self.keyword = keyword
        self._nvd = nvd
        self._index = index
        self._heap: list[tuple[float, int, int]] = []
        self._seen: set[int] = set()
        # dq(h) per open slot: keys must be *recomputed* as dq + d(h,o),
        # never recovered by subtraction, to stay bit-exact.
        self._slot_dq: dict[int, float] = {}
        self.lower_bound_computations = 0
        self.extractions = 0
        self._insertions = 0
        with trace_timed("lb.compute"):
            hub_ids, hub_dists = labeling.label(query_vertex)
            for ordinal, dq in zip(hub_ids.tolist(), hub_dists.tolist()):
                slot = index.slot(ordinal)
                if slot is None:
                    continue
                dists, _ = index.stream(slot)
                self._slot_dq[slot] = dq
                self._push(dq + float(dists[0]), slot, 0)
        heapq.heapify(self._heap)

    def _push(self, key: float, slot: int, position: int) -> None:
        self._heap.append((key, slot, position))
        self.lower_bound_computations += 1
        self._insertions += 1

    # ------------------------------------------------------------------
    # Heap interface used by the Query Processor
    # ------------------------------------------------------------------
    def empty(self) -> bool:
        """Whether every hub stream is exhausted."""
        return not self._heap

    def min_key(self) -> float:
        """``MINKEY(H)``: a valid lower bound on every unseen object's
        exact distance (and *equal* to the next fresh object's)."""
        return self._heap[0][0] if self._heap else INFINITY

    def pop(self) -> tuple[int, float] | None:
        """Next live object with its exact network distance, or ``None``.

        Each iteration pops one stream cursor and re-inserts its
        successor; first occurrences are reported (2-hop cover makes
        their key exact), duplicates and tombstones pass through.
        """
        while self._heap:
            key, slot, position = heapq.heappop(self._heap)
            self.extractions += 1
            dists, objs = self._index.stream(slot)
            if position + 1 < len(dists):
                dq = self._slot_dq[slot]
                heapq.heappush(
                    self._heap, (dq + float(dists[position + 1]), slot, position + 1)
                )
                self.lower_bound_computations += 1
                self._insertions += 1
            obj = int(objs[position])
            if obj in self._seen:
                continue
            self._seen.add(obj)
            if not self._nvd.is_deleted(obj):
                return obj, key
        return None

    @property
    def inserted_count(self) -> int:
        """Stream cursors inserted — the heap-pressure analogue of the
        NVD heap's object insertions."""
        return self._insertions


class LabelHeapGenerator(HeapGenerator):
    """Heap Generator that seeds from hub labels when it safely can.

    Builds and caches one :class:`KeywordLabelIndex` per keyword on
    first use; serves :class:`LabelHeap` while the cache entry is fresh
    and falls back to the parent's NVD-seeded
    :class:`~repro.core.heap_generator.InvertedHeap` the moment a lazy
    update touches the keyword's diagram.
    """

    def __init__(
        self, lower_bounder: LowerBounder, labeling: HubLabeling
    ) -> None:
        super().__init__(lower_bounder)
        self._labeling = labeling
        self._indexes: dict[str, KeywordLabelIndex] = {}
        self.label_heaps = 0
        self.fallback_heaps = 0

    @property
    def labeling(self) -> HubLabeling:
        """The vertex labeling object labels are folded from."""
        return self._labeling

    def heap_for(
        self,
        keyword: str,
        nvd: ApproximateNVD,
        query_vertex: int,
        query_coordinates: tuple[float, float],
    ) -> InvertedHeap | LabelHeap:
        index = self._indexes.get(keyword)
        if index is None or not index.is_fresh(nvd):
            if nvd.pending_updates == 0:
                # Clean diagram (fresh build or post-rebuild swap):
                # (re)snapshot it.
                index = KeywordLabelIndex(keyword, self._labeling, nvd)
                self._indexes[keyword] = index
            else:
                # Dirty diagram: exactness comes from NVD expansion
                # until rebuild_pending() swaps in a clean one.
                self.fallback_heaps += 1
                return super().heap_for(
                    keyword, nvd, query_vertex, query_coordinates
                )
        self.label_heaps += 1
        return LabelHeap(keyword, nvd, query_vertex, self._labeling, index)

    def invalidate(self, keywords: list[str] | None = None) -> None:
        """Drop cached object labels (all, or for given keywords) so the
        next query re-snapshots a rebuilt diagram."""
        if keywords is None:
            self._indexes.clear()
            return
        for keyword in keywords:
            self._indexes.pop(keyword, None)

    def label_memory_bytes(self) -> int:
        """Current object-label cache footprint."""
        return sum(ix.memory_bytes() for ix in self._indexes.values())
