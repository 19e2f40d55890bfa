"""The process-sharded serving cluster (scatter-gather coordinator).

Python's GIL caps the thread-based :class:`~repro.serve.engine.Engine`
at one core of query execution.  :class:`ClusterCoordinator` escapes it
with processes while keeping the expensive part — the built K-SPIN
index — shared:

* **Fork after build.**  Workers are forked *from the parent that built
  (or loaded) the index*, so the graph, ALT tables, distance oracle and
  every APX-NVD arrive via copy-on-write pages: no per-worker rebuild,
  no serialisation, O(pages touched) extra memory.  Under the ``spawn``
  start method (no ``fork`` on the platform, or explicitly requested)
  workers instead rehydrate from the persisted snapshot plus a replay
  of the update journal.
* **The parent stays authoritative.**  Every update is applied to the
  parent's own copy first and journaled, then fanned out to workers.  A
  worker that dies is re-forked from the parent (or re-spawned from
  snapshot + journal), so the replacement is always current — restarts
  lose no updates.
* **Placement is routing, not partitioning.**  Every worker holds the
  full index; the :mod:`~repro.serve.placement` router decides which
  worker(s) answer for throughput/cache-affinity.  Disjunctive BkNN
  queries spanning several keyword shards scatter and the coordinator
  merges with :func:`repro.api.merge_results`.  The router reads the
  parent's exact ``index.inverted_size``: a query that needs a keyword
  no live object carries is answered empty without a dispatch.
* **No request is lost.**  A request that hits a dead worker retries on
  the surviving workers and, as a last resort, runs on the parent's own
  in-process engine; the supervisor is kicked to restart the casualty
  in the background.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.analysis.lockdebug import make_lock
from repro.api import (
    Query,
    QueryResult,
    UpdateOp,
    ensure_supported,
    merge_results,
    merge_stat_dicts,
    stats_to_dict,
)
from repro.core.framework import KSpin
from repro.obs.events import EVENTS, merge_streams
from repro.obs.profile import PROFILER, merge_folded
from repro.obs.trace import TRACER, Span, attach, current_span
from repro.obs.trace import span as trace_span
from repro.serve.engine import Engine
from repro.serve.metrics import merge_latency_payloads
from repro.serve.ipc import WorkerDied, WorkerError, WorkerHandle, worker_main
from repro.serve.placement import KeywordShardRouter, ReplicateRouter
from repro.serve.supervisor import Supervisor
from repro.sketch.lossy import LossyCounter

#: Recognised placement policy names (CLI surface).
PLACEMENTS = ("replicate", "shard-by-keyword")


def _preferred_context(start_method: str | None) -> multiprocessing.context.BaseContext:
    """The requested or best-available multiprocessing context."""
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class ClusterCoordinator:
    """N worker processes behind one :class:`repro.api.Query` surface.

    Implements the same ``execute`` / ``apply`` / ``health`` /
    ``metrics_snapshot`` protocol as :class:`Engine`, so the HTTP tier
    (and any other caller) is backend-agnostic.

    Parameters
    ----------
    kspin:
        The built framework; stays authoritative in the parent.
    num_workers:
        Worker process count (the cluster size).
    placement:
        ``"replicate"`` or ``"shard-by-keyword"``.
    cache_size:
        Per-worker result-cache capacity (0 disables worker caches).
    start_method:
        Force ``"fork"`` or ``"spawn"``; default prefers fork.
    snapshot_path:
        Persisted index image for spawn-mode rehydration.  Written on
        demand (to a temp file, cleaned up on close) when absent.
    supervise:
        Run the background health checker (on by default).
    """

    #: Shared state and its lock (read by KSP002 and ``lockdebug``):
    #: membership and the journal change under the update lock; the
    #: request-path counters have their own small mutex.
    _guarded_by = {
        "_update_lock": (
            "updates_applied", "workers", "_journal", "_pool", "_started",
            "_snapshot_path", "_owns_snapshot",
        ),
        "_stats_lock": (
            "fallback_queries", "retried_requests", "dispatches",
            "short_circuits", "skipped_shards",
        ),
    }

    def __init__(
        self,
        kspin: KSpin,
        num_workers: int = 2,
        placement: str = "replicate",
        cache_size: int = 1024,
        start_method: str | None = None,
        snapshot_path: str | None = None,
        supervise: bool = True,
        health_interval: float = 1.0,
        ping_timeout: float = 2.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        if placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {placement!r}"
            )
        self._kspin = kspin
        self.num_workers = num_workers
        self.placement = placement
        self.cache_size = cache_size
        self._ctx = _preferred_context(start_method)
        self._snapshot_path = snapshot_path
        self._owns_snapshot = False
        # The parent's own engine: authoritative update target and the
        # no-worker-left fallback.  Cache disabled — the parent answers
        # rarely and must never serve a result its workers would not.
        self._fallback = Engine(kspin, cache_size=0)
        # The router reads the parent's exact |inv(t)|: every applied
        # update is visible to the next routing decision.
        router = ReplicateRouter if placement == "replicate" else KeywordShardRouter
        self.router = router(num_workers, kspin.index.inverted_size)
        self.workers: list[WorkerHandle | None] = [None] * num_workers
        self._journal: list[dict] = []
        # Reentrant: apply() restarts diverged workers while holding it.
        self._update_lock = make_lock("cluster.update", rlock=True)
        # Request-path counters share no state with updates: their own
        # small mutex keeps the hot dispatch path off the update lock
        # (KSP002: `+=` on an attribute is not atomic, even under the GIL).
        self._stats_lock = make_lock("cluster.stats")
        self._pool: ThreadPoolExecutor | None = None
        self.supervisor = Supervisor(
            self, interval=health_interval, ping_timeout=ping_timeout
        )
        self._supervise = supervise
        self._started = False
        self.updates_applied = 0
        self.fallback_queries = 0
        self.retried_requests = 0
        self.dispatches = 0
        self.skipped_shards = 0
        self.short_circuits = 0
        self.last_error: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClusterCoordinator":
        """Fork the workers and start supervision (idempotent)."""
        if self._started:
            return self
        with self._update_lock:
            for index in range(self.num_workers):
                self.workers[index] = self._spawn_worker(index)
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="cluster-scatter",
            )
            self._started = True
        if self._supervise:
            self.supervisor.start()
        return self

    def close(self) -> None:
        """Stop supervision, shut workers down, release resources."""
        self.supervisor.stop()
        with self._update_lock:
            for index, handle in enumerate(self.workers):
                if handle is not None:
                    handle.close()
                    self.workers[index] = None
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            self._started = False
            if self._owns_snapshot and self._snapshot_path:
                try:
                    os.unlink(self._snapshot_path)
                except OSError as error:
                    self.last_error = f"snapshot cleanup: {error}"
                self._owns_snapshot = False

    def __enter__(self) -> "ClusterCoordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------
    def _spawn_worker(self, index: int) -> WorkerHandle:
        name = f"worker-{index}"
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        if self._ctx.get_start_method() == "fork":
            # The built index rides into the child via copy-on-write.
            process = self._ctx.Process(
                target=worker_main,
                args=(child_conn, name, self._kspin, self.cache_size),
                name=name,
                daemon=True,
            )
        else:
            # Spawn cannot inherit memory: rehydrate from the snapshot
            # and replay every update applied since it was written.
            process = self._ctx.Process(
                target=worker_main,
                kwargs={
                    "conn": child_conn,
                    "name": name,
                    "kspin": None,
                    "cache_size": self.cache_size,
                    "snapshot_path": self._ensure_snapshot(),
                    "journal": list(self._journal),
                },
                name=name,
                daemon=True,
            )
        process.start()
        child_conn.close()
        EVENTS.emit(
            "worker.spawn",
            worker=name,
            mode=self._ctx.get_start_method(),
            pid=process.pid,
        )
        return WorkerHandle(name, process, parent_conn)

    def _ensure_snapshot(self) -> str:  # ksp: holds[self._update_lock]
        if self._snapshot_path is None:
            from repro.persist import save_kspin

            fd, path = tempfile.mkstemp(prefix="kspin-cluster.", suffix=".idx")
            os.close(fd)
            save_kspin(self._kspin, path)
            self._snapshot_path = path
            self._owns_snapshot = True
        elif not os.path.exists(self._snapshot_path):
            from repro.persist import save_kspin

            save_kspin(self._kspin, self._snapshot_path)
        return self._snapshot_path

    def restart_worker(self, index: int) -> WorkerHandle:
        """Replace worker ``index`` with a fresh, fully-current process.

        Under the update lock so the replacement can never be forked
        mid-update: it inherits (fork) or replays (spawn) exactly the
        updates the parent has fully applied.
        """
        with self._update_lock:
            old = self.workers[index]
            restarts = old.restarts + 1 if old is not None else 1
            if old is not None:
                if not old.is_alive():
                    EVENTS.emit(
                        "worker.death", worker=old.name, restarts=restarts
                    )
                old.close()
            handle = self._spawn_worker(index)
            handle.restarts = restarts
            self.workers[index] = handle
            EVENTS.emit(
                "worker.restart", worker=handle.name, restarts=restarts
            )
            return handle

    def _alive_indexes(self) -> list[int]:
        return [
            i for i, h in enumerate(self.workers)
            if h is not None and h.is_alive()
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> QueryResult:
        """Route one query: a thin shim over a one-element batch."""
        return self.execute_many((query,))[0]

    def execute_many(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Route a batch of queries with one pipe round-trip per worker.

        The native batch path (``execute`` is a one-element batch):
        every query is planned individually (so short circuits and
        shard skipping stay per-query exact), the per-worker
        sub-queries are grouped, and each worker receives its whole
        share in **one** ``query_batch`` IPC request.  Gathering is one
        reply per worker; scattered queries are merged per-query with
        :func:`repro.api.merge_results`.  Result-identical (same hits
        per query, in order) to sequential execution.
        """
        queries = list(queries)
        if not queries:
            return []
        for query in queries:
            ensure_supported(query, "cluster")
        if not self._started:
            self.start()
        with trace_span(
            "cluster.execute",
            kind=queries[0].kind,
            batch=len(queries),
        ):
            results: list[QueryResult | None] = [None] * len(queries)
            # Plan each query, then group (query-index, sub-query)
            # pairs per target worker so one pipe round-trip carries a
            # worker's entire share of the batch.
            per_worker: dict[int, list[tuple[int, Query]]] = {}
            scatter_k: dict[int, int] = {}
            short_circuits = dispatches = skipped = 0
            inflight = self._inflight()
            for i, query in enumerate(queries):
                plan = self.router.plan(query, inflight)
                if plan.empty:
                    # A needed keyword has no live object: answer
                    # without touching a single worker.
                    short_circuits += 1
                    with trace_span("cluster.short_circuit"):
                        results[i] = QueryResult(
                            hits=(), stats=stats_to_dict(None)
                        )
                    continue
                dispatches += len(plan.assignments)
                skipped += len(plan.skipped)
                for target, subquery in plan.assignments.items():
                    per_worker.setdefault(target, []).append((i, subquery))
                if plan.scatter:
                    scatter_k[i] = max(
                        subquery.k
                        for subquery in plan.assignments.values()
                    )
            with self._stats_lock:
                self.short_circuits += short_circuits
                self.dispatches += dispatches
                self.skipped_shards += skipped
            if per_worker:
                assert self._pool is not None
                # True batches (size > 1) leave a scatter/gather pair in
                # the flight recorder; single queries stay silent — the
                # hot path must not flood the ring.
                if len(queries) > 1:
                    EVENTS.emit(
                        "batch.scatter",
                        queries=len(queries),
                        targets=sorted(per_worker),
                    )
                parent = current_span()
                futures = {
                    target: self._pool.submit(
                        self._dispatch_batch, target, items, parent
                    )
                    for target, items in per_worker.items()
                }
                gathered: dict[int, list[QueryResult]] = {}
                for target, future in futures.items():
                    for (i, _), part in zip(per_worker[target], future.result()):
                        gathered.setdefault(i, []).append(part)
                for i, parts in gathered.items():
                    if i in scatter_k:
                        with trace_span("cluster.merge", parts=len(parts)):
                            results[i] = merge_results(parts, scatter_k[i])
                    else:
                        results[i] = parts[0]
                if len(queries) > 1:
                    EVENTS.emit("batch.gather", queries=len(gathered))
            return [result for result in results if result is not None]

    def _inflight(self) -> list[int]:
        return [
            h.inflight if h is not None and h.is_alive() else 1 << 20
            for h in self.workers
        ]

    def _dispatch_batch(
        self,
        target: int,
        items: Sequence[tuple[int, Query]],
        parent: Span | None = None,
    ) -> list[QueryResult]:
        """Run a worker's whole batch share in one pipe round-trip.

        ``items`` is this worker's ``(query-index, sub-query)`` share;
        the reply is order-aligned with it.  On worker death the
        *whole sub-batch* retries on the survivors (any worker holds
        the full index), and a fleet with no survivors falls back to
        the parent's in-process engine — still through the batch path.
        A :class:`~repro.serve.ipc.WorkerError` (the worker *answered*,
        with an error) is deterministic and propagates without retry.

        When a trace is active (directly or via ``parent`` from a
        scatter thread), the trace ID rides the batch payload to the
        worker and the worker's span tree is grafted back under the
        dispatch span.
        """
        with attach(parent), trace_span(
            "cluster.dispatch", target=target, batch=len(items)
        ) as dspan:
            attempts = [target] + [
                i for i in range(self.num_workers) if i != target
            ]
            died = False
            for attempt in attempts:
                handle = self.workers[attempt]
                if handle is None or not handle.is_alive():
                    continue
                payload: dict = {
                    "queries": [subquery.to_dict() for _, subquery in items]
                }
                if dspan.trace_id:
                    payload["trace_id"] = dspan.trace_id
                try:
                    body = handle.request("query_batch", payload)
                except WorkerDied:
                    died = True
                    self.supervisor.kick()
                    continue
                if died:
                    with self._stats_lock:
                        self.retried_requests += 1
                worker_trace = (
                    body.get("trace") if isinstance(body, dict) else None
                )
                if worker_trace:
                    dspan.graft(Span.from_dict(worker_trace))
                return [
                    QueryResult.from_dict(item) for item in body["results"]
                ]
            if died:
                with self._stats_lock:
                    self.retried_requests += 1
            with self._stats_lock:
                self.fallback_queries += len(items)
            dspan.annotate(fallback=True)
            return self._fallback.execute_many(
                [subquery for _, subquery in items]
            )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply(self, op: UpdateOp) -> dict:
        """Apply one update everywhere: parent first, then fan out.

        The parent is authoritative — if it rejects the op (unknown
        object, bad keyword) nothing is journaled or fanned out.  A
        worker that fails the fan-out (died, or diverged enough to
        error) is restarted from the now-current parent, which already
        includes this op; restarts therefore never lose updates.
        """
        with self._update_lock:
            summary = self._fallback.apply(op)
            self._journal.append(op.to_dict())
            self.updates_applied += 1
            evicted = 0
            for index, handle in enumerate(self.workers):
                if handle is None:
                    continue
                try:
                    worker_summary = handle.request("update", op.to_dict())
                    evicted += int(worker_summary.get("cache_evicted", 0))
                except (WorkerDied, WorkerError):
                    if self._started:
                        self.restart_worker(index)
            summary["cache_evicted"] = evicted
            return summary

    # ------------------------------------------------------------------
    # Observability scatter (flight recorder + profiler)
    # ------------------------------------------------------------------
    def events_snapshot(self) -> list[dict]:
        """One causally-ordered event record for the whole cluster.

        Gathers every live worker's flight-recorder stream over the
        ``events`` IPC verb and merges it with the coordinator's own —
        per-worker sequence order is preserved unconditionally, so the
        merged record reconstructs e.g. a SIGKILL restart: the
        coordinator's ``worker.death``/``worker.spawn`` interleaved with
        the replacement's ``worker.start`` (``mode=fork|rehydrate``).
        A worker that dies mid-gather contributes nothing this call;
        its history re-merges once the supervisor's replacement starts.
        """
        streams: list[list[dict]] = [EVENTS.events()]
        for handle in self.workers:
            if handle is None or not handle.is_alive():
                continue
            try:
                body = handle.request("events", {"since_seq": 0})
                streams.append(list(body.get("events") or []))
            except (WorkerDied, WorkerError):
                self.supervisor.kick()
        return merge_streams(streams)

    def profile(self, action: str, hz: float | None = None) -> dict:
        """Cluster-wide profiler control: scatter, then merge stacks.

        ``action`` (``start``/``stop``/``status``/``reset``) applies to
        the coordinator's own profiler *and* every live worker's (the
        query CPU burns in the workers; the coordinator only shepherds
        pipes).  Folded stacks come back prefixed with their process
        name, so one flame graph shows the fleet side by side.
        """
        payload = {"action": action, "hz": hz}
        if action == "start":
            PROFILER.start(hz=hz)
        elif action == "stop":
            PROFILER.stop()
        elif action == "reset":
            PROFILER.reset()
        snapshots = [PROFILER.snapshot()]
        folded: list[dict] = [
            {
                f"{PROFILER.source};{stack}": count
                for stack, count in PROFILER.folded().items()
            }
        ]
        for handle in self.workers:
            if handle is None or not handle.is_alive():
                continue
            try:
                body = handle.request("profile", payload)
            except (WorkerDied, WorkerError):
                self.supervisor.kick()
                continue
            snapshot = body.get("snapshot") or {}
            snapshots.append(snapshot)
            source = snapshot.get("source") or handle.name
            folded.append(
                {
                    f"{source};{stack}": count
                    for stack, count in (body.get("folded") or {}).items()
                }
            )
        return {
            "action": action,
            "enabled": any(snap.get("enabled") for snap in snapshots),
            "profilers": snapshots,
            "folded": merge_folded(folded),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Cluster liveness: per-worker status plus parent index facts."""
        base = self._fallback.health()
        alive = self._alive_indexes()
        base.update(
            {
                "status": "ok" if len(alive) == self.num_workers else "degraded",
                "placement": self.placement,
                "workers": {
                    "total": self.num_workers,
                    "alive": len(alive),
                    "restarts": sum(
                        h.restarts for h in self.workers if h is not None
                    ),
                },
                "updates_applied": self.updates_applied,
                "journal_length": len(self._journal),
            }
        )
        return base

    def metrics_snapshot(self) -> dict:
        """Aggregated per-worker metrics plus coordinator counters.

        Matches :meth:`Engine.metrics_snapshot`'s shape at the top level
        (summed across workers) and adds a ``cluster`` section with the
        per-worker breakdown, so ``/metrics`` dashboards work unchanged
        against either backend.
        """
        per_worker: dict[str, dict] = {}
        for handle in self.workers:
            if handle is None or not handle.is_alive():
                continue
            try:
                per_worker[handle.name] = handle.request("metrics", None)
            except (WorkerDied, WorkerError):
                self.supervisor.kick()
        merged = self._merge_metrics(list(per_worker.values()))
        merged["cluster"] = {
            "placement": self.placement,
            "workers": self.num_workers,
            "alive": len(self._alive_indexes()),
            "restarts": sum(
                h.restarts for h in self.workers if h is not None
            ),
            "supervisor_sweeps": self.supervisor.sweeps,
            "supervisor_sweep_errors": self.supervisor.sweep_errors,
            "supervisor_last_error": self.supervisor.last_error,
            "fallback_queries": self.fallback_queries,
            "retried_requests": self.retried_requests,
            "dispatches": self.dispatches,
            "skipped_shards": self.skipped_shards,
            "short_circuits": self.short_circuits,
            "updates_applied": self.updates_applied,
            "worker_status": {
                handle.name: {
                    "alive": handle.is_alive(),
                    "restarts": handle.restarts,
                    "inflight": handle.inflight,
                    "requests": handle.requests,
                }
                for handle in self.workers
                if handle is not None
            },
            "per_worker": per_worker,
        }
        progress = getattr(self._kspin.index, "build_progress", None)
        if progress is not None:
            merged["nvd_build"] = progress.snapshot()
        merged["tracing"] = TRACER.snapshot()
        return merged

    @staticmethod
    def _merge_metrics(snapshots: list[dict]) -> dict:
        """Fold worker snapshots: counters add, histograms merge exactly.

        Every latency block carries its raw bucket payload, and the
        fixed bucket layout makes merging lossless — the reported
        percentiles are exactly those of the pooled per-worker samples
        (pinned by the cross-worker merge property test), not the old
        count-weighted-mean / worst-worker-tail approximation.
        """
        merged: dict = {
            "requests": {},
            "requests_total": 0,
            "errors": {},
            "shed": 0,
            "timeouts": 0,
            "rate_limited": 0,
            "queries_served": 0,
            "cache": {
                "capacity": 0,
                "entries": 0,
                "hits": 0,
                "misses": 0,
                "invalidations": 0,
            },
        }
        histogram_keys = ("latency", "error_latency", "query_latency")
        pooled: dict[str, list[dict]] = {key: [] for key in histogram_keys}
        endpoints: dict[str, list[dict]] = {}
        stages: dict[str, list[dict]] = {}
        for snap in snapshots:
            for endpoint, count in snap.get("requests", {}).items():
                merged["requests"][endpoint] = (
                    merged["requests"].get(endpoint, 0) + count
                )
            merged["requests_total"] += snap.get("requests_total", 0)
            for endpoint, count in snap.get("errors", {}).items():
                merged["errors"][endpoint] = (
                    merged["errors"].get(endpoint, 0) + count
                )
            merged["shed"] += snap.get("shed", 0)
            merged["timeouts"] += snap.get("timeouts", 0)
            merged["rate_limited"] += snap.get("rate_limited", 0)
            merged["queries_served"] += snap.get("queries_served", 0)
            for name in ("capacity", "entries", "hits", "misses", "invalidations"):
                merged["cache"][name] += snap.get("cache", {}).get(name, 0)
            for key in histogram_keys:
                block = snap.get(key)
                if isinstance(block, dict) and "buckets" in block:
                    pooled[key].append(block)
            for endpoint, block in (snap.get("endpoints") or {}).items():
                endpoints.setdefault(endpoint, []).append(block)
            for stage, block in (snap.get("stages") or {}).items():
                stages.setdefault(stage, []).append(block)
        merged["query_stats"] = merge_stat_dicts(
            snap.get("query_stats", {}) for snap in snapshots
        )
        # Hot-keyword admission: merge the per-worker lossy counters so
        # cluster-wide heat reflects every worker's traffic (the merged
        # counter keeps the Manku–Motwani error bound over the pooled
        # stream), then sum the plain admission counters.
        admissions = [
            snap["cache"]["admission"]
            for snap in snapshots
            if isinstance(snap.get("cache", {}).get("admission"), dict)
        ]
        if admissions:
            pooled_heat: LossyCounter | None = None
            block: dict = {"admitted": 0, "rejected": 0, "observed": 0}
            for payload in admissions:
                for name in ("admitted", "rejected", "observed"):
                    block[name] += payload.get(name, 0)
                counter_payload = payload.get("counter")
                if counter_payload:
                    counter = LossyCounter.from_dict(counter_payload)
                    if pooled_heat is None:
                        pooled_heat = counter
                    else:
                        pooled_heat.merge(counter)
            if pooled_heat is not None:
                block["counter"] = pooled_heat.to_dict()
                block["top"] = pooled_heat.top(10)
                block["tracked"] = len(pooled_heat)
            merged["cache"]["admission"] = block
        lookups = merged["cache"]["hits"] + merged["cache"]["misses"]
        merged["cache"]["hit_rate"] = (
            merged["cache"]["hits"] / lookups if lookups else 0.0
        )
        for key in histogram_keys:
            merged[key] = merge_latency_payloads(pooled[key])
        merged["endpoints"] = {
            endpoint: merge_latency_payloads(blocks)
            for endpoint, blocks in sorted(endpoints.items())
        }
        merged["stages"] = {
            stage: merge_latency_payloads(blocks)
            for stage, blocks in sorted(stages.items())
        }
        return merged
