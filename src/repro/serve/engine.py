"""The serving engine: a thread-safe facade over a built ``KSpin``.

Why a wrapper is needed at all
------------------------------
The core framework is written for one caller at a time:

* ``QueryProcessor.last_stats`` is one mutable slot per processor —
  two concurrent queries through the same processor race on it.
* Updates mutate per-keyword APX-NVD structures (tombstone sets,
  co-location dicts, adjacency sets) that concurrent queries iterate.

:class:`Engine` makes the pair safe without serialising the hot path:

* **Per-thread query processors.**  Every worker thread gets its own
  :class:`~repro.core.query_processor.QueryProcessor` sharing the heavy
  read-only components (graph, keyword index, relevance model, distance
  oracle, heap generator), so ``last_stats`` is thread-private and the
  read path takes no lock of its own.
* **A readers-writer lock.**  Queries hold it in read mode (unbounded
  concurrency — K-SPIN queries touch disjoint per-keyword heaps);
  updates hold it in write mode, and invalidate the result cache
  *before* releasing so no stale entry survives an update.
* **A keyword-aware LRU result cache** keyed on
  ``(vertex, frozenset(keywords), k, kind, mode)``; an update touching
  keyword ``t`` evicts exactly the entries that read ``t``'s diagram.

Known benign races (audited, paper §5.1/§6 structures):
``GTree``'s border-distance cache is filled at query time — concurrent
fills recompute the same idempotent value, and its
``matrix_operations`` counter may undercount under races; neither
affects results.  ``AltLowerBounder`` and ``HubLabeling`` are
read-only after construction.  ``LabelHeapGenerator`` fills two caches
at query time.  Its per-keyword label rows are gathered from diagram
state the read lock freezes, so concurrent fills publish identical
values and the last writer wins.  Its dense query-vector memo is one
``(vertex, array)`` tuple, swapped by a single assignment and never
mutated in place: a reader holds the pair it unpacked whatever another
thread stores next, and two threads over different vertices only cost
each other the memo's hit.  Its ``label_heaps`` counter may undercount.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

from repro.api import (
    Query,
    QueryResult,
    UpdateOp,
    ensure_supported,
    hits_from_pairs,
    stats_to_dict,
)
from repro.core.framework import KSpin
from repro.core.query_processor import QueryProcessor, QueryStats
from repro.obs.events import EVENTS
from repro.obs.trace import annotate as trace_annotate
from repro.obs.trace import span as trace_span
from repro.serve.cache import HotKeywordAdmission, ResultCache, result_key
from repro.serve.locks import ReadWriteLock
from repro.serve.metrics import ServerMetrics


class Engine:
    """Thread-safe serving facade over a built :class:`KSpin` instance.

    Parameters
    ----------
    kspin:
        The built framework (freshly constructed or ``load_kspin``-ed).
    cache_size:
        Result-cache capacity; 0 disables caching.
    metrics:
        Optional shared :class:`ServerMetrics`; one is created if absent.
    """

    #: Shared state and its lock (read by KSP002 and ``lockdebug``).
    _guarded_by = {"lock": ("updates_applied",)}

    def __init__(
        self,
        kspin: KSpin,
        cache_size: int = 1024,
        metrics: ServerMetrics | None = None,
    ) -> None:
        self._kspin = kspin
        self.cache = ResultCache(cache_size)
        self.admission = HotKeywordAdmission()
        self.metrics = metrics or ServerMetrics()
        self.lock = ReadWriteLock(name="engine.rwlock")
        self._local = threading.local()
        self.updates_applied = 0

    @property
    def kspin(self) -> KSpin:
        """The wrapped framework (updates must go through the engine)."""
        return self._kspin

    def _processor(self) -> QueryProcessor:
        """This thread's private query processor (lazily created)."""
        processor = getattr(self._local, "processor", None)
        if processor is None:
            k = self._kspin
            processor = QueryProcessor(
                k.graph, k.index, k.relevance, k.oracle, k.heap_generator
            )
            self._local.processor = processor
        return processor

    # ------------------------------------------------------------------
    # Queries (read side)
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> QueryResult:
        """Answer one :class:`repro.api.Query` through cache and read lock.

        A thin shim over :meth:`execute_many` with a one-element batch
        (batches are the first-class execution unit); the serving tier
        (HTTP handlers, cluster workers) calls this with the same
        :class:`Query` values every other engine accepts.
        """
        return self.execute_many((query,))[0]

    def execute_many(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch of queries with batched cache and lock traffic.

        The native batch path — and the engine's *only* execution path
        (:meth:`execute` is a one-element batch):

        * one validation pass (an unsupported query raises before any
          work; callers wanting per-item error isolation go through
          :func:`repro.api.execute_batch`),
        * one admission-heat update and **one cache sweep** under a
          single cache-lock acquisition, splitting hits from misses,
        * **one read-lock acquisition** for all misses, executed in
          ascending-vertex order so the per-thread CSR workspace's
          one-slot SSSP memo amortises same-source queries, with
          intra-batch duplicate keys computed once.

        Result-identical (same hits per query, in order) to
        ``[self.execute(q) for q in queries]``.
        """
        queries = list(queries)
        if not queries:
            return []
        for query in queries:
            ensure_supported(query, "Engine")
        keys = [
            result_key(q.vertex, q.keywords, q.k, q.kind, q.mode)
            for q in queries
        ]
        # Heat is observed on every request (hit or miss): admission
        # measures query traffic, and a hot entry that keeps hitting
        # must stay hot even though it never re-enters via put().
        self.admission.observe_many(q.keywords for q in queries)
        with trace_span("engine.cache_lookup", batch=len(queries)):
            cached_entries = self.cache.get_many(keys)
        results: list[QueryResult | None] = [None] * len(queries)
        for i, entry in enumerate(cached_entries):
            if entry is not None:
                self.metrics.record_query_stats(QueryStats(), cached=True)
                results[i] = QueryResult(
                    hits=hits_from_pairs(queries[i].kind, entry),
                    stats=stats_to_dict(QueryStats()),
                    cached=True,
                )
        missing = [i for i in range(len(queries)) if results[i] is None]
        trace_annotate(cache="miss" if missing else "hit")
        if missing:
            processor = self._processor()
            # Ascending vertex order maximises SSSP-memo reuse; the
            # stable tiebreak on the original index keeps duplicate
            # resolution identical to sequential execution.
            order = sorted(missing, key=lambda i: (queries[i].vertex, i))
            computed: dict = {}
            with trace_span("engine.lock_wait"):
                self.lock.acquire_read()
            try:
                for i in order:
                    query, key = queries[i], keys[i]
                    if key in computed:
                        # Intra-batch duplicate: the first occurrence's
                        # hits are, by definition, this query's answer.
                        self.metrics.record_query_stats(
                            QueryStats(), cached=True
                        )
                        results[i] = QueryResult(
                            hits=hits_from_pairs(query.kind, computed[key]),
                            stats=stats_to_dict(QueryStats()),
                            cached=True,
                        )
                        continue
                    start = time.perf_counter()
                    with trace_span("engine.execute", kind=query.kind):
                        pairs = processor.answer(query)
                        stats = processor.last_stats
                    computed[key] = pairs
                    # Stored before the read lock drops: a concurrent
                    # update's invalidation (under the write lock) can
                    # then never miss this entry and leave a stale
                    # result behind.  A full cache only admits hot
                    # keyword vectors — each put there evicts a
                    # resident, and one-off scans must not churn the
                    # hot set.
                    if self.admission.admit(
                        query.keywords, under_pressure=self.cache.full()
                    ):
                        self.cache.put(key, pairs)
                    self.metrics.record_query_stats(
                        stats, seconds=time.perf_counter() - start
                    )
                    results[i] = QueryResult(
                        hits=hits_from_pairs(query.kind, pairs),
                        stats=stats_to_dict(stats),
                        cached=False,
                    )
            finally:
                self.lock.release_read()
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------
    # Updates (write side, paper §6.2)
    # ------------------------------------------------------------------
    def apply(self, op: UpdateOp) -> dict:
        """Apply one :class:`repro.api.UpdateOp` — the only write path.

        One write-lock block: the index takes the op, the cache loses
        every entry that read a touched keyword *before* the lock drops
        (so no stale entry survives).  Returns the index's summary plus
        the cache fallout:
        ``{"applied": ..., "cache_evicted": n}``, with ``"rebuilt":
        [...]`` for ``rebuild``.
        """
        with self.lock.write():
            # A delete touches whatever the object carries now.
            keywords = (
                list(self._kspin.index.document(op.object))
                if op.op == "delete"
                else list(op.touched_keywords())
            )
            summary = self._kspin.apply(op)
            keywords = summary.get("rebuilt", keywords)
            evicted = self.cache.invalidate_keywords(keywords) if keywords else 0
            if op.op != "rebuild":
                self.updates_applied += 1
        summary["cache_evicted"] = evicted
        EVENTS.emit(
            "update.applied", op=op.op, keywords=len(keywords), cache_evicted=evicted
        )
        return summary

    def on_rebuilt(self, keyword: str) -> None:
        """Cache-invalidation hook for background rebuild events.

        Register with
        :meth:`repro.core.updates.BackgroundRebuilder.add_listener` so a
        diagram swapped in on the worker thread immediately evicts every
        cached result that read the old diagram.
        """
        self.cache.invalidate_keywords([keyword])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """A cheap liveness/readiness payload for ``/healthz``."""
        index = self._kspin.index
        return {
            "status": "ok",
            "keywords": len(index.keywords()),
            "vertices": self._kspin.graph.num_vertices,
            "updates_applied": self.updates_applied,
            "cache_entries": len(self.cache),
        }

    def metrics_snapshot(self) -> dict:
        """Server metrics plus cache statistics, JSON-ready.

        The same shape :meth:`ClusterCoordinator.metrics_snapshot`
        returns per worker, so ``/metrics`` is backend-agnostic.
        """
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.snapshot()
        snapshot["cache"]["admission"] = self.admission.snapshot()
        progress = getattr(self._kspin.index, "build_progress", None)
        if progress is not None:
            snapshot["nvd_build"] = progress.snapshot()
        from repro.obs.trace import TRACER

        snapshot["tracing"] = TRACER.snapshot()
        return snapshot

    def events_snapshot(self) -> list[dict]:
        """This process's flight-recorder stream (already one source).

        Mirrors :meth:`ClusterCoordinator.events_snapshot` so the HTTP
        tier's ``/v1/debug/events`` is backend-agnostic; an in-process
        engine shares the process-global recorder, so no merge is
        needed.
        """
        from repro.obs.events import EVENTS

        return EVENTS.events()

    def profile(self, action: str, hz: float | None = None) -> dict:
        """Drive the process-global sampling profiler.

        Same contract as :meth:`ClusterCoordinator.profile`; folded
        stacks come back prefixed with the process source so the output
        merges cleanly with cluster payloads.
        """
        from repro.obs.profile import PROFILER

        if action == "start":
            PROFILER.start(hz=hz)
        elif action == "stop":
            PROFILER.stop()
        elif action == "reset":
            PROFILER.reset()
        snapshot = PROFILER.snapshot()
        return {
            "action": action,
            "enabled": snapshot["enabled"],
            "profilers": [snapshot],
            "folded": {
                f"{PROFILER.source};{stack}": count
                for stack, count in PROFILER.folded().items()
            },
        }
