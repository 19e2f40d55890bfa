"""Label-backed heap seeding: one exact flat scan per query keyword.

The default Heap Generator seeds each keyword heap from the keyword's
APX-NVD and expands adjacency lazily, paying one lower-bound evaluation
per candidate and one exact distance per survivor.  The paper's
Observation 1 seeds a heap with the *whole* inverted list when the list
is short; with a 2-hop labeling every list is short enough, because the
exact ``d(q, o)`` of every live object of a keyword is one gather over
the objects' label rows ("Simpler is More", PAPERS.md):

    ``dense[hubs] + dists -> np.minimum.reduceat -> stable argsort``

where ``dense`` is the query vertex's label spread over a hub-indexed
vector.  :class:`LabelHeap` is the finished, ascending result: Property
1 (paper §3) holds with equality, so the heap is a drop-in for
:class:`~repro.core.heap_generator.InvertedHeap` in every query
algorithm, and since its keys *are* the distances (``exact = True``)
the Query Processor never asks the oracle for them again.

Updates
-------
The objects scanned are ``nvd.live_objects()`` — the set §6.2 updates
already maintain — so tombstones, revivals, lazy inserts and keyword
edits are visible to the very next query.  Per keyword the generator
keeps the concatenated label rows of that set, valid while serving
reads the *same* diagram instance with the same ``pending_updates``
count; a write costs the next query one re-gather, never a different
algorithm.

Thread safety matches the rest of the serving stack: heaps are
per-query, the label arrays are immutable, and the two query-time
caches (rows per keyword, the last dense query vector) are idempotent
fills published by one reference assignment each, from diagram state
the engine's readers-writer lock freezes during queries.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.heap_generator import HeapGenerator
from repro.distance.hub_labeling import HubLabeling
from repro.lowerbound.base import LowerBounder
from repro.nvd.approximate import ApproximateNVD
from repro.obs.trace import timed as trace_timed

INFINITY = math.inf


class LabelHeap:
    """Every live object of one keyword, ascending by exact distance
    (ties by object id), behind the InvertedHeap interface."""

    #: Keys are exact network distances, not lower bounds.
    exact = True

    def __init__(self, keyword: str, objects: list[int], keys: list[float]) -> None:
        """``objects`` and ``keys`` in *descending* order: pops take the tail."""
        self.keyword = keyword
        self._objects = objects
        self._keys = keys
        self.lower_bound_computations = self.inserted_count = len(objects)

    def empty(self) -> bool:
        """Whether every object has been popped."""
        return not self._keys

    def min_key(self) -> float:
        """``MINKEY(H)``: the next object's exact distance; inf when empty."""
        return self._keys[-1] if self._keys else INFINITY

    def pop(self) -> tuple[int, float] | None:
        """Next object with its exact network distance, or ``None``."""
        if not self._keys:
            return None
        return self._objects.pop(), self._keys.pop()


class _KeywordRows(NamedTuple):
    """Label rows of one diagram's live objects, and what they are valid for."""

    nvd: ApproximateNVD
    stamp: int  # nvd.pending_updates when gathered
    objects: np.ndarray  # ascending object ids
    hubs: np.ndarray
    dists: np.ndarray
    offsets: np.ndarray


class LabelHeapGenerator(HeapGenerator):
    """Heap Generator that scores a keyword's live objects from hub labels."""

    def __init__(
        self, lower_bounder: LowerBounder, labeling: HubLabeling
    ) -> None:
        super().__init__(lower_bounder)
        self._labeling = labeling
        self._rows: dict[str, _KeywordRows] = {}
        # (query vertex, its dense label): a query's keywords share one.
        self._dense: tuple[int, np.ndarray | None] = (-1, None)
        self.label_heaps = 0
        #: Always 0 (there is no fallback); benchmarks/e2e still reads it.
        self.fallback_heaps = 0

    @property
    def labeling(self) -> HubLabeling:
        """The vertex labeling the scans read."""
        return self._labeling

    def heap_for(
        self,
        keyword: str,
        nvd: ApproximateNVD,
        query_vertex: int,
        query_coordinates: tuple[float, float],
    ) -> LabelHeap:
        rows = self._rows.get(keyword)
        if rows is None or rows.nvd is not nvd or rows.stamp != nvd.pending_updates:
            rows = self._gather(nvd)
            self._rows[keyword] = rows
        with trace_timed("lb.compute"):
            vertex, dense = self._dense
            if vertex != query_vertex:
                dense = self._labeling.dense_source_vector(query_vertex)
                self._dense = (query_vertex, dense)
            # take(): fancy indexing would first widen the int32 ordinals.
            keys = np.minimum.reduceat(dense.take(rows.hubs) + rows.dists, rows.offsets)
            order = keys.argsort(kind="stable")[::-1]
        self.label_heaps += 1
        return LabelHeap(keyword, rows.objects[order].tolist(), keys[order].tolist())

    def _gather(self, nvd: ApproximateNVD) -> _KeywordRows:
        objects = sorted(nvd.live_objects())
        return _KeywordRows(
            nvd,
            nvd.pending_updates,
            np.asarray(objects, dtype=np.int64),
            *self._labeling.label_rows(objects),
        )

    def invalidate(self, keywords: list[str] | None = None) -> None:
        """Drop cached label rows (all, or for given keywords) so a
        replaced diagram's arrays are not kept alive."""
        if keywords is None:
            self._rows.clear()
            return
        for keyword in keywords:
            self._rows.pop(keyword, None)

    def label_memory_bytes(self) -> int:
        """Current label-row cache footprint."""
        return sum(
            rows.objects.nbytes + rows.hubs.nbytes + rows.dists.nbytes + rows.offsets.nbytes
            for rows in self._rows.values()
        )
