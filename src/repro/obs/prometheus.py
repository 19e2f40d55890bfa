"""Prometheus text exposition (version 0.0.4) for the metrics snapshot.

``/v1/metrics`` keeps serving the JSON snapshot; this module renders the
*same* snapshot as ``text/plain`` Prometheus format for
``/v1/metrics?format=prometheus`` — no third-party client library, just
the documented line format: ``# HELP`` / ``# TYPE`` headers, labelled
samples, and for every histogram the ``_bucket`` (cumulative, with a
trailing ``+Inf``), ``_sum`` and ``_count`` series.

Histograms arrive as the mergeable bucket payloads produced by
:meth:`repro.obs.histogram.LogHistogram.summary_ms`; the fine internal
buckets are folded down to the fixed :data:`~repro.obs.histogram.PROMETHEUS_BOUNDS`
ladder so scrape size stays bounded.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.histogram import PROMETHEUS_BOUNDS, LogHistogram

#: Content type Prometheus scrapers expect.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labels(labels: Mapping[str, str] | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: object) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Writer:
    """Accumulates exposition lines, emitting HELP/TYPE once per metric."""

    def __init__(self, namespace: str) -> None:
        self.namespace = namespace
        self.lines: list[str] = []
        self._described: set[str] = set()

    def _describe(self, name: str, kind: str, help_text: str) -> str:
        full = f"{self.namespace}_{name}"
        if full not in self._described:
            self.lines.append(f"# HELP {full} {help_text}")
            self.lines.append(f"# TYPE {full} {kind}")
            self._described.add(full)
        return full

    def sample(
        self,
        name: str,
        kind: str,
        help_text: str,
        value: object,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        full = self._describe(name, kind, help_text)
        self.lines.append(f"{full}{_labels(labels)} {_format_value(value)}")

    def histogram(
        self,
        name: str,
        help_text: str,
        payload: Mapping,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        """Emit ``_bucket``/``_sum``/``_count`` from a summary payload."""
        histogram = LogHistogram.from_dict(payload)
        full = self._describe(name, "histogram", help_text)
        base = dict(labels or {})
        for bound, cumulative in histogram.cumulative(PROMETHEUS_BOUNDS):
            bucket_labels = dict(base)
            bucket_labels["le"] = _format_bound(bound)
            self.lines.append(
                f"{full}_bucket{_labels(bucket_labels)} {cumulative}"
            )
        bucket_labels = dict(base)
        bucket_labels["le"] = "+Inf"
        self.lines.append(f"{full}_bucket{_labels(bucket_labels)} {histogram.count}")
        self.lines.append(f"{full}_sum{_labels(base)} {_format_value(histogram.total)}")
        self.lines.append(f"{full}_count{_labels(base)} {histogram.count}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _format_bound(bound: float) -> str:
    text = f"{bound:.10f}".rstrip("0").rstrip(".")
    return text or "0"


def render_prometheus(snapshot: Mapping, namespace: str = "repro") -> str:
    """Render one ``metrics_snapshot()`` dict as Prometheus text format.

    Tolerant of shape differences between backends: every section is
    optional, so the same renderer serves the thread engine, the cluster
    coordinator, and bare worker snapshots.
    """
    w = _Writer(namespace)

    # ------------------------------------------------------------- HTTP
    for endpoint, count in sorted((snapshot.get("requests") or {}).items()):
        w.sample("requests_total", "counter", "Completed requests by endpoint.",
                 count, {"endpoint": endpoint})
    if "requests_total" in snapshot and not snapshot.get("requests"):
        w.sample("requests_total", "counter", "Completed requests by endpoint.",
                 snapshot["requests_total"], {"endpoint": "all"})
    for endpoint, count in sorted((snapshot.get("errors") or {}).items()):
        w.sample("errors_total", "counter", "Errored requests by endpoint.",
                 count, {"endpoint": endpoint})
    if "shed" in snapshot:
        w.sample("shed_total", "counter",
                 "Requests rejected by admission control (HTTP 503).",
                 snapshot["shed"])
    if "timeouts" in snapshot:
        w.sample("timeouts_total", "counter",
                 "Requests that missed their deadline (HTTP 504).",
                 snapshot["timeouts"])
    if "rate_limited" in snapshot:
        w.sample("rate_limited_total", "counter",
                 "Requests rejected by the per-client rate limiter (HTTP 429).",
                 snapshot["rate_limited"])
    limiter = snapshot.get("rate_limiter") or {}
    if limiter:
        w.sample("rate_limiter_allowed_total", "counter",
                 "Requests admitted by the leaky-bucket limiter.",
                 limiter.get("allowed", 0))
        w.sample("rate_limiter_limited_total", "counter",
                 "Requests refused by the leaky-bucket limiter.",
                 limiter.get("limited", 0))
        w.sample("rate_limiter_clients", "gauge",
                 "Client buckets currently tracked.",
                 limiter.get("tracked_clients", 0))
    if "queries_served" in snapshot:
        w.sample("queries_served_total", "counter",
                 "Queries answered (cache hits included).",
                 snapshot["queries_served"])

    # ------------------------------------------------------- histograms
    histograms = (
        ("latency", "request_latency_seconds",
         "End-to-end HTTP request latency (successful requests)."),
        ("error_latency", "error_latency_seconds",
         "End-to-end HTTP request latency (errored requests)."),
        ("query_latency", "query_latency_seconds",
         "Engine-side query execution latency (per worker, mergeable)."),
    )
    for key, name, help_text in histograms:
        payload = snapshot.get(key)
        if isinstance(payload, Mapping) and "buckets" in payload:
            w.histogram(name, help_text, payload)
    for endpoint, payload in sorted((snapshot.get("endpoints") or {}).items()):
        if isinstance(payload, Mapping) and "buckets" in payload:
            w.histogram("endpoint_latency_seconds",
                        "Request latency by endpoint.",
                        payload, {"endpoint": endpoint})
    for stage, payload in sorted((snapshot.get("stages") or {}).items()):
        if isinstance(payload, Mapping) and "buckets" in payload:
            w.histogram("stage_latency_seconds",
                        "Per-stage time from query traces (span taxonomy).",
                        payload, {"stage": stage})

    # ------------------------------------------------- §5.1 cost model
    for counter, value in sorted((snapshot.get("query_stats") or {}).items()):
        w.sample("query_stats_total", "counter",
                 "Aggregated paper-5.1 cost-model operation counts.",
                 value, {"counter": counter})

    # ------------------------------------------------------------ cache
    cache = snapshot.get("cache") or {}
    cache_counters = (
        ("hits", "cache_hits_total", "Result-cache hits."),
        ("misses", "cache_misses_total", "Result-cache misses."),
        ("invalidations", "cache_invalidations_total",
         "Result-cache entries evicted by index updates."),
    )
    for key, name, help_text in cache_counters:
        if key in cache:
            w.sample(name, "counter", help_text, cache[key])
    if "entries" in cache:
        w.sample("cache_entries", "gauge", "Live result-cache entries.",
                 cache["entries"])
    if "capacity" in cache:
        w.sample("cache_capacity", "gauge", "Result-cache capacity.",
                 cache["capacity"])
    if "hit_rate" in cache:
        w.sample("cache_hit_rate", "gauge",
                 "Result-cache hits over lookups so far.", cache["hit_rate"])

    # -------------------------------------------------------- admission
    if "queue_depth" in snapshot:
        w.sample("queue_depth", "gauge",
                 "Admitted requests in flight (running + waiting).",
                 snapshot["queue_depth"])
    if "workers" in snapshot and not isinstance(snapshot["workers"], Mapping):
        w.sample("pool_workers", "gauge", "Query worker threads.",
                 snapshot["workers"])
    if "max_queue" in snapshot:
        w.sample("pool_max_queue", "gauge",
                 "Admission queue capacity (503 beyond).",
                 snapshot["max_queue"])

    # ---------------------------------------------------------- cluster
    cluster = snapshot.get("cluster") or {}
    if cluster:
        w.sample("cluster_workers", "gauge", "Configured cluster workers.",
                 cluster.get("workers", 0))
        w.sample("cluster_workers_alive", "gauge", "Live cluster workers.",
                 cluster.get("alive", 0))
        w.sample("cluster_worker_restarts_total", "counter",
                 "Worker processes restarted by the supervisor.",
                 cluster.get("restarts", 0))
        for key, help_text in (
            ("fallback_queries", "Queries answered by the parent fallback engine."),
            ("retried_requests", "Requests retried after a worker death."),
            ("updates_applied", "Updates fanned out across the cluster."),
            ("supervisor_sweeps", "Supervisor health sweeps completed."),
            ("dispatches", "Queries the router sent to a worker."),
            ("short_circuits",
             "Queries answered empty without any dispatch (a needed "
             "keyword has no live object)."),
        ):
            if key in cluster:
                w.sample(f"cluster_{key}_total", "counter", help_text, cluster[key])
        for worker, status in sorted((cluster.get("worker_status") or {}).items()):
            labels = {"worker": worker}
            w.sample("worker_up", "gauge", "Worker process liveness.",
                     1 if status.get("alive") else 0, labels)
            w.sample("worker_restarts_total", "counter",
                     "Restarts of this worker slot.",
                     status.get("restarts", 0), labels)
            w.sample("worker_inflight", "gauge",
                     "Requests currently on this worker's pipe.",
                     status.get("inflight", 0), labels)
            w.sample("worker_requests_total", "counter",
                     "Requests answered over this worker's pipe.",
                     status.get("requests", 0), labels)
        for worker, per in sorted((cluster.get("per_worker") or {}).items()):
            payload = per.get("query_latency")
            if isinstance(payload, Mapping) and "buckets" in payload:
                w.histogram("worker_query_latency_seconds",
                            "Engine-side query latency by worker.",
                            payload, {"worker": worker})

    # -------------------------------------------------- NVD build state
    build = snapshot.get("nvd_build") or {}
    if build:
        w.sample("nvd_build_tasks", "gauge",
                 "Keyword diagrams in the current/last index build.",
                 build.get("total", 0))
        w.sample("nvd_build_completed_total", "counter",
                 "Keyword diagrams built so far (parallel builder progress).",
                 build.get("completed", 0))
        w.sample("nvd_build_in_progress", "gauge",
                 "Whether an index build is currently running.",
                 1 if build.get("running") else 0)
        if build.get("elapsed_seconds") is not None:
            w.sample("nvd_build_elapsed_seconds", "gauge",
                     "Wall time of the current/last index build.",
                     build.get("elapsed_seconds"))

    # ---------------------------------------------------------- tracing
    tracing = snapshot.get("tracing") or {}
    if tracing:
        w.sample("traces_finished_total", "counter",
                 "Query traces completed since start.",
                 tracing.get("traces_finished", 0))
        w.sample("tracing_enabled", "gauge",
                 "Whether end-to-end tracing is on.",
                 1 if tracing.get("enabled") else 0)

    # --------------------------------------------------- flight recorder
    events = snapshot.get("events") or {}
    if events:
        w.sample("events_emitted_total", "counter",
                 "Flight-recorder events emitted by this process.",
                 events.get("emitted", 0))
        w.sample("events_dropped_total", "counter",
                 "Flight-recorder events scrolled out of the ring.",
                 events.get("dropped", 0))
        w.sample("events_buffered", "gauge",
                 "Flight-recorder events currently buffered.",
                 events.get("buffered", 0))

    # ---------------------------------------------------------- profiler
    profiler = snapshot.get("profiler") or {}
    if profiler:
        w.sample("profiler_enabled", "gauge",
                 "Whether the sampling profiler is running.",
                 1 if profiler.get("enabled") else 0)
        w.sample("profiler_samples_total", "counter",
                 "Stack samples folded since the last reset.",
                 profiler.get("samples", 0))

    return w.render()
