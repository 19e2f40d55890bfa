"""Serving metrics: request counters, mergeable latency histograms, cost totals.

The paper reports throughput (Table 1) and per-query operation counts
(§5.1); a long-running server additionally needs tail latency and
saturation signals.  :class:`ServerMetrics` aggregates, thread-safely:

* per-endpoint request/error/shed counters,
* latency **histograms** (:class:`~repro.obs.histogram.LogHistogram`)
  for successful requests, errored requests (error-path slowness is a
  real signal, not noise to discard), per endpoint, per traced stage,
  and for engine-side query execution — all with fixed log buckets, so
  per-worker histograms merge losslessly and cluster percentiles are the
  percentiles of the pooled samples,
* aggregated :class:`~repro.core.query_processor.QueryStats` counters —
  the §5.1 cost model summed over every served query.

The pre-observability sampling reservoir is gone: reservoir percentiles
cannot be combined across processes, which made the cluster's tail
numbers unreliable exactly where they mattered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.analysis.lockdebug import make_lock
from repro.core.query_processor import QueryStats
from repro.obs.histogram import LogHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Span


class LatencyRecorder(LogHistogram):
    """A latency histogram in seconds (kept under the historical name).

    Formerly a bounded sampling reservoir; now a fixed log-bucketed
    histogram so recorders merge exactly across threads, processes, and
    cluster workers.  Memory is constant (sparse buckets over a fixed
    layout) and ``count``/``total``/min/max are exact.
    """

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded latencies (legacy accessor)."""
        return self.total


def merge_latency_payloads(payloads: Iterable[Mapping]) -> dict:
    """Merge worker latency payloads into one ``summary_ms`` block.

    Each payload is a :meth:`LogHistogram.summary_ms` dict (the shape
    every ``/metrics`` latency section uses); the result's percentiles
    are exactly those of the pooled samples.
    """
    return LogHistogram.merged(
        LogHistogram.from_dict(payload) for payload in payloads
    ).summary_ms()


class ServerMetrics:
    """All serving counters behind one mutex, snapshot for ``/metrics``."""

    #: Shared state and its lock (read by KSP002 and ``lockdebug``).
    _guarded_by = {
        "_lock": (
            "shed", "timeouts", "rate_limited", "queries_served",
            "_requests", "_errors", "_latency", "_error_latency",
            "_query_latency", "_endpoint_latency", "_stage_latency",
            "_stats_totals", "_batch_size",
        ),
    }

    def __init__(self) -> None:
        self._lock = make_lock("metrics")
        self._latency = LatencyRecorder()
        self._error_latency = LatencyRecorder()
        self._query_latency = LatencyRecorder()
        self._endpoint_latency: dict[str, LatencyRecorder] = {}
        self._stage_latency: dict[str, LatencyRecorder] = {}
        self._requests: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self.shed = 0
        self.timeouts = 0
        self.rate_limited = 0
        self._stats_totals = QueryStats()
        self.queries_served = 0
        self._batch_size = LogHistogram()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, endpoint: str, seconds: float, error: bool = False) -> None:
        """One completed request (successful or errored, not shed).

        Errored requests keep their latency too — in a dedicated
        histogram, so a slow error path (worker retry walks, deadline
        near-misses, failing backends) is visible instead of silently
        discarded, without polluting the success percentiles.
        """
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
            if error:
                self._errors[endpoint] = self._errors.get(endpoint, 0) + 1
                self._error_latency.record(seconds)
                return
            self._latency.record(seconds)
            recorder = self._endpoint_latency.get(endpoint)
            if recorder is None:
                recorder = self._endpoint_latency[endpoint] = LatencyRecorder()
            recorder.record(seconds)

    def record_shed(self, seconds: float | None = None) -> None:
        """One request rejected by admission control (503).

        ``seconds`` (time spent before the rejection) lands in the
        error-latency histogram: a 503 that took a while queueing is a
        saturation signal, not noise.
        """
        with self._lock:
            self.shed += 1
            if seconds is not None:
                self._error_latency.record(seconds)

    def record_timeout(self, seconds: float | None = None) -> None:
        """One request that missed its deadline (504)."""
        with self._lock:
            self.timeouts += 1
            if seconds is not None:
                self._error_latency.record(seconds)

    def record_rate_limited(self, seconds: float | None = None) -> None:
        """One request rejected by the per-client rate limiter (429).

        Counted apart from shed (503) and deadline (504): a 429 is the
        *client* exceeding its budget, not the server saturating — the
        dashboards must never conflate the two.
        """
        with self._lock:
            self.rate_limited += 1
            if seconds is not None:
                self._error_latency.record(seconds)

    def record_query_stats(
        self,
        stats: QueryStats,
        cached: bool = False,
        seconds: float | None = None,
    ) -> None:
        """Fold one query's §5.1 cost counters into the running totals.

        Cache hits pass ``cached=True`` and contribute no new work — the
        totals then measure what the backend actually executed.
        ``seconds`` (when the engine timed the execution) feeds the
        engine-side query-latency histogram, the per-worker series the
        cluster merges for its fleet percentiles.
        """
        with self._lock:
            self.queries_served += 1
            if seconds is not None:
                self._query_latency.record(seconds)
            if not cached:
                self._stats_totals.merge(stats)

    def record_batch(self, size: int) -> None:
        """One ``/v1/batch`` request carrying ``size`` queries.

        The distribution (not just a mean) matters: a fleet mixing
        batch-1 probes with batch-128 bulk readers looks healthy on
        averages while the tail drives queueing — the histogram keeps
        both visible.
        """
        with self._lock:
            self._batch_size.record(float(size))

    def record_stage(self, stage: str, seconds: float) -> None:
        """One per-query total for a traced stage (span or timer name)."""
        with self._lock:
            recorder = self._stage_latency.get(stage)
            if recorder is None:
                recorder = self._stage_latency[stage] = LatencyRecorder()
            recorder.record(seconds)

    def record_trace(self, root: "Span") -> None:
        """Tracer sink: fold one finished trace into per-stage histograms.

        Records, per trace, the total time under each distinct span name
        (the structural stages) and each aggregate timer (the hot §5.1
        operations: exact distances, lower bounds, LAZYREHEAP walks) —
        so ``stages`` answers "where does a typical query spend time?"
        with a real distribution per stage, mergeable across workers.
        """
        totals: dict[str, float] = {}
        for node in root.walk():
            if node is not root:
                totals[node.name] = totals.get(node.name, 0.0) + node.duration
            for name, (_count, seconds) in node.timers.items():
                totals[name] = totals.get(name, 0.0) + seconds
        for stage, seconds in totals.items():
            self.record_stage(stage, seconds)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready view of every counter (the ``/metrics`` body).

        Latency blocks carry the classic ``count``/``mean_ms``/``p50_ms``
        /``p95_ms``/``p99_ms`` keys plus the raw bucket payload, which is
        what cluster coordinators merge for exact fleet percentiles.
        """
        with self._lock:
            return {
                "requests": dict(self._requests),
                "requests_total": sum(self._requests.values()),
                "errors": dict(self._errors),
                "shed": self.shed,
                "timeouts": self.timeouts,
                "rate_limited": self.rate_limited,
                "queries_served": self.queries_served,
                "latency": self._latency.summary_ms(),
                "error_latency": self._error_latency.summary_ms(),
                "query_latency": self._query_latency.summary_ms(),
                "endpoints": {
                    endpoint: recorder.summary_ms()
                    for endpoint, recorder in self._endpoint_latency.items()
                },
                "stages": {
                    stage: recorder.summary_ms()
                    for stage, recorder in self._stage_latency.items()
                },
                "query_stats": self._stats_totals.to_dict(),
                "batch_size": {
                    # Unit-less (query counts, not seconds): the raw
                    # bucket payload merges like every other histogram.
                    **self._batch_size.to_dict(),
                    "mean": self._batch_size.mean(),
                    "p50": self._batch_size.percentile(50),
                    "p95": self._batch_size.percentile(95),
                    "p99": self._batch_size.percentile(99),
                },
            }
