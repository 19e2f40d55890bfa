"""The Keyword Separated Index (paper §6).

One APX-NVD per keyword, plus the update plumbing of §6.2: object and
keyword insertions/deletions are routed to the affected keywords'
diagrams, lazily, with a configurable rebuild threshold.

Construction honours all three observations: small keywords skip NVD
construction (Observation 1), only adjacency graphs and quadtrees are
retained (Observation 2a/2b), and building can fan out over worker
processes (Observation 3).

Thread safety
-------------
The read side (:meth:`nvd`, :meth:`has_keyword`, :meth:`document`,
:meth:`inverted_size`) is safe under concurrent *queries*: it only
reads dicts/sets, and the keyword-separated layout means two queries
never contend on each other's diagrams.  The update side mutates the
overlay dicts and per-keyword diagrams (tombstone sets, co-location
dicts, adjacency sets) that query-side heap expansion iterates — a
concurrent update can therefore raise ``RuntimeError: set changed size
during iteration`` mid-query.  Callers mixing queries and updates
across threads must hold queries in read mode and updates in write mode
of an external readers-writer lock, as :class:`repro.serve.Engine`
does.  Diagram *swaps* (``rebuild_pending`` and the background
rebuilder) are safe without it: replacing ``_nvds[keyword]`` is a
single atomic dict assignment and in-flight heaps keep the old diagram
alive via their own reference.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping

from repro.graph.road_network import RoadNetwork
from repro.nvd.approximate import ApproximateNVD, DistanceFn
from repro.nvd.builder import BuildProgress, build_keyword_nvds
from repro.text.documents import KeywordDataset


class KeywordSeparatedIndex:
    """Per-keyword APX-NVDs over a keyword dataset.

    Parameters
    ----------
    graph:
        The road network.
    dataset:
        The keyword dataset whose inverted lists are indexed.
    rho:
        Approximation parameter (paper default 5).
    workers:
        Worker processes for parallel construction (1 = serial).
    rebuild_threshold:
        Pending lazy updates per keyword before :meth:`rebuild_pending`
        refreshes that keyword's diagram.
    """

    def __init__(
        self,
        graph: RoadNetwork,
        dataset: KeywordDataset,
        rho: int = 5,
        workers: int = 1,
        rebuild_threshold: int = 50,
    ) -> None:
        if rebuild_threshold < 1:
            raise ValueError("rebuild_threshold must be positive")
        self._graph = graph
        self._dataset = dataset
        self.rho = rho
        self.rebuild_threshold = rebuild_threshold
        start = time.perf_counter()
        self.build_progress = BuildProgress()
        self._nvds: dict[str, ApproximateNVD] = build_keyword_nvds(
            graph, dataset, rho=rho, workers=workers,
            progress=self.build_progress,
        )
        self.build_seconds = time.perf_counter() - start
        # Documents of objects inserted after construction (the dataset
        # itself is immutable; updates overlay it).
        self._overlay_documents: dict[int, dict[str, int]] = {}
        self._removed_keywords: dict[int, set[str]] = {}

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def nvd(self, keyword: str) -> ApproximateNVD | None:
        """The APX-NVD for ``keyword`` (None for unknown keywords)."""
        return self._nvds.get(keyword)

    def keywords(self) -> tuple[str, ...]:
        """All indexed keywords."""
        return tuple(sorted(self._nvds))

    def has_keyword(self, obj: int, keyword: str) -> bool:
        """Whether ``obj`` currently carries ``keyword`` (updates applied)."""
        if keyword in self._removed_keywords.get(obj, ()):
            return False
        if keyword in self._overlay_documents.get(obj, ()):
            nvd = self._nvds.get(keyword)
            return nvd is not None and not nvd.is_deleted(obj)
        if not self._dataset.contains(obj, keyword):
            return False
        nvd = self._nvds.get(keyword)
        return nvd is not None and not nvd.is_deleted(obj)

    def document(self, obj: int) -> dict[str, int]:
        """The current document of ``obj``, with overlay updates applied."""
        doc: dict[str, int] = {}
        if self._dataset.is_object(obj):
            doc.update(self._dataset.document(obj))
        doc.update(self._overlay_documents.get(obj, {}))
        for keyword in self._removed_keywords.get(obj, ()):
            doc.pop(keyword, None)
        return doc

    def is_modified(self, obj: int) -> bool:
        """Whether ``obj``'s document changed after index construction.

        Modified objects have stale pre-computed impacts, so the query
        processor recomputes their relevance from the live document.
        """
        return obj in self._overlay_documents or obj in self._removed_keywords

    def inverted_size(self, keyword: str) -> int:
        """Current ``|inv(t)|`` including lazy updates, exact and O(1).

        The one number keyword ranking (Observation 1, the §4.1.2
        rarest-heap rule) and cluster routing read; 0 means no live
        object carries ``keyword``.
        """
        nvd = self._nvds.get(keyword)
        return 0 if nvd is None else nvd.live_count()

    # ------------------------------------------------------------------
    # Updates (paper §6.2)
    # ------------------------------------------------------------------
    def insert_object(
        self,
        obj: int,
        document: Mapping[str, int] | Iterable[str],
        distance_fn: DistanceFn,
    ) -> None:
        """Insert a new object with its document.

        The object is lazily added to each of its keywords' diagrams
        (over one-way streets: the diagram is rebuilt with it); a
        keyword with no diagram yet, or no live object left in it, gets
        a fresh small one (paper §6.2, Non-NVD Updates).
        """
        if isinstance(document, Mapping):
            counts = {str(t): int(f) for t, f in document.items() if int(f) > 0}
        else:
            counts = {}
            for t in document:
                counts[str(t)] = counts.get(str(t), 0) + 1
        if not counts:
            raise ValueError("cannot insert an object with an empty document")
        coordinates = self._graph.coordinates(obj)
        for keyword in counts:
            self._insert_into_keyword(obj, keyword, coordinates, distance_fn)
        self._overlay_documents.setdefault(obj, {}).update(counts)
        self._removed_keywords.get(obj, set()).difference_update(counts)

    def _insert_into_keyword(
        self,
        obj: int,
        keyword: str,
        coordinates: tuple[float, float],
        distance_fn: DistanceFn,
    ) -> None:
        nvd = self._nvds.get(keyword)
        if nvd is None or not nvd.live_count():
            # No diagram, or one whose every generator is tombstoned
            # (nothing left to route an affected-set search from).
            self._nvds[keyword] = ApproximateNVD.build(
                self._graph, [obj], rho=self.rho, keyword=keyword
            )
            return
        if obj in nvd.objects and not nvd.is_deleted(obj):
            return  # already present for this keyword
        if self._graph.symmetric or nvd.is_small or nvd.is_deleted(obj):
            nvd.insert_object(obj, coordinates, distance_fn)
        else:
            # Theorem 2's d(o, o_e) >= 2 * MaxRadius(o_e) prune assumes
            # d(u -> v) == d(v -> u); over one-way streets a fresh
            # diagram stands in for the affected-set search.
            self._nvds[keyword] = ApproximateNVD.build(
                self._graph, nvd.live_objects() | {obj}, rho=self.rho,
                keyword=keyword,
            )

    def delete_object(self, obj: int) -> None:
        """Tombstone ``obj`` in every keyword diagram that lists it."""
        keywords = list(self.document(obj))
        if not keywords:
            raise KeyError(f"object {obj} has no current document")
        for keyword in keywords:
            nvd = self._nvds.get(keyword)
            if nvd is not None and obj in nvd.objects:
                nvd.delete_object(obj)
        self._removed_keywords.setdefault(obj, set()).update(keywords)

    def add_keyword(
        self, obj: int, keyword: str, distance_fn: DistanceFn, frequency: int = 1
    ) -> None:
        """Add one keyword to an existing object's document."""
        if frequency < 1:
            raise ValueError("frequency must be positive")
        self._insert_into_keyword(
            obj, keyword, self._graph.coordinates(obj), distance_fn
        )
        self._overlay_documents.setdefault(obj, {})[keyword] = frequency
        self._removed_keywords.get(obj, set()).discard(keyword)

    def remove_keyword(self, obj: int, keyword: str) -> None:
        """Remove one keyword from an existing object's document."""
        if keyword not in self.document(obj):
            raise KeyError(f"object {obj} does not carry {keyword!r}")
        nvd = self._nvds.get(keyword)
        if nvd is not None and obj in nvd.objects:
            nvd.delete_object(obj)
        self._removed_keywords.setdefault(obj, set()).add(keyword)

    def pending_updates(self) -> dict[str, int]:
        """Per-keyword count of lazy updates awaiting a rebuild."""
        return {
            keyword: nvd.pending_updates
            for keyword, nvd in self._nvds.items()
            if nvd.pending_updates
        }

    def rebuild_pending(self) -> list[str]:
        """Rebuild every diagram past the threshold; returns the keywords.

        The paper amortises re-computation over many lazy updates and
        notes a new APX-NVD "may be built in parallel" while queries
        continue on the lazy one; here the swap is atomic per keyword.
        """
        rebuilt = []
        for keyword, nvd in list(self._nvds.items()):
            if nvd.pending_updates >= self.rebuild_threshold:
                if nvd.live_count():
                    self._nvds[keyword] = nvd.rebuild(self._graph)
                else:
                    del self._nvds[keyword]
                rebuilt.append(keyword)
        return rebuilt

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Total keyword-separated index footprint."""
        return sum(nvd.memory_bytes() for nvd in self._nvds.values())

    def indexed_fraction(self) -> float:
        """Fraction of keywords that needed a real NVD (Observation 1)."""
        if not self._nvds:
            return 0.0
        large = sum(1 for nvd in self._nvds.values() if not nvd.is_small)
        return large / len(self._nvds)
