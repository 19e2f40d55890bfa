"""``repro.obs`` — observability for the K-SPIN serving stack.

Three pieces, all stdlib-only:

* :mod:`repro.obs.histogram` — :class:`LogHistogram`, a fixed
  log-linear-bucketed latency histogram.  Constant memory, exact bucket
  counts, and **lossless merging**: summing two histograms' buckets
  yields exactly the histogram of the pooled samples, so cluster-level
  p50/p95/p99 computed from merged worker histograms are correct (the
  sampling reservoirs they replace could not be re-ranked across
  workers).
* :mod:`repro.obs.trace` — a lightweight span API
  (``with span("oracle.distance"): ...``) with trace IDs minted at HTTP
  ingress, propagated across threads and the cluster IPC boundary, and
  reassembled into one tree; a ring buffer of recent traces and a
  slow-query log.  Near-zero overhead when no trace is active: every
  instrumentation point is a single ``ContextVar`` read returning a
  shared no-op.
* :mod:`repro.obs.prometheus` — the Prometheus text exposition format
  (``/v1/metrics?format=prometheus``) rendered from the JSON metrics
  snapshot, including ``_bucket``/``_sum``/``_count`` series for every
  histogram.

Generation two adds two always-on-capable production facilities:

* :mod:`repro.obs.profile` — a stdlib sampling profiler
  (``sys._current_frames()`` at a configurable hz, folded-stack
  aggregation, collapsed flame-graph export) with zero cost while
  disabled; spans additionally record exact per-stage CPU-vs-wall
  attribution (``cpu_ms``) via ``time.thread_time``.
* :mod:`repro.obs.events` — a bounded append-only flight recorder of
  discrete serving events (shed, evict, worker death) with per-source
  monotonic sequence numbers; per-process streams merge into one
  causally-ordered record.

The vocabulary is the paper's §5.1 cost model — iterations κ, exact
distance computations, lower-bound computations, heap operations — so a
trace explains *where* a slow query spent its budget in the same terms
the complexity analysis is written in.
"""

from repro.obs.events import (
    EVENTS,
    FlightRecorder,
    format_event,
    merge_streams,
    to_jsonl,
)
from repro.obs.histogram import LogHistogram, PROMETHEUS_BOUNDS
from repro.obs.profile import (
    PROFILER,
    SamplingProfiler,
    merge_folded,
    render_collapsed,
)
from repro.obs.trace import (
    Span,
    Tracer,
    TRACER,
    annotate,
    attach,
    current_span,
    format_trace,
    span,
    timed,
)

__all__ = [
    "EVENTS",
    "FlightRecorder",
    "LogHistogram",
    "PROFILER",
    "PROMETHEUS_BOUNDS",
    "SamplingProfiler",
    "Span",
    "TRACER",
    "Tracer",
    "annotate",
    "attach",
    "current_span",
    "format_event",
    "format_trace",
    "merge_folded",
    "merge_streams",
    "render_collapsed",
    "span",
    "timed",
    "to_jsonl",
]
