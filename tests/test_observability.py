"""Tests for repro.obs: histograms, tracing, Prometheus exposition.

Pins the three load-bearing properties of the observability layer:

* merged histogram percentiles are EXACTLY the percentiles of the
  pooled per-worker samples (the reason reservoirs were replaced),
* ``ServerMetrics`` stays consistent under concurrent hammering,
* the Prometheus text rendering is well-formed exposition format
  (validated with a small stdlib-only parser, as the CI smoke step
  does against a live server).
"""

import math
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_processor import QueryStats
from repro.obs.histogram import (
    PROMETHEUS_BOUNDS,
    LogHistogram,
    bucket_bounds,
    bucket_index,
    bucket_midpoint,
)
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import (
    TRACER,
    Span,
    Tracer,
    attach,
    current_span,
    format_trace,
    span,
    timed,
)
from repro.serve.metrics import (
    LatencyRecorder,
    ServerMetrics,
    merge_latency_payloads,
)


# ----------------------------------------------------------------------
# Histogram bucket layout
# ----------------------------------------------------------------------
class TestBucketLayout:
    def test_value_lands_inside_its_bucket(self):
        for value in (1e-6, 0.00123, 0.5, 1.0, 3.7, 1000.0):
            low, high = bucket_bounds(bucket_index(value))
            assert low <= value < high or value == low

    def test_midpoint_relative_error_bounded(self):
        # Log-linear with 16 sub-buckets: midpoint within 1/32 of value.
        for exponent in range(-15, 8):
            value = 1.37 * 2.0 ** exponent
            midpoint = bucket_midpoint(bucket_index(value))
            assert abs(midpoint - value) / value <= 1 / 32 + 1e-12

    def test_extremes_clamp(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-5.0) == 0
        assert bucket_index(1e-30) == 0
        big = bucket_index(1e12)
        assert big == bucket_index(1e15)  # both clamp to the top bucket


# ----------------------------------------------------------------------
# Histogram recording and merging
# ----------------------------------------------------------------------
class TestLogHistogram:
    def test_count_total_min_max_exact(self):
        histogram = LogHistogram()
        for value in (0.001, 0.5, 0.25, 0.002):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(0.753)
        assert histogram.min == 0.001
        assert histogram.max == 0.5

    def test_serialisation_round_trips(self):
        histogram = LogHistogram()
        for i in range(100):
            histogram.record(0.001 * (i + 1))
        clone = LogHistogram.from_dict(histogram.to_dict())
        assert clone.to_dict() == histogram.to_dict()
        for q in (50, 95, 99):
            assert clone.percentile(q) == histogram.percentile(q)

    def test_summary_payload_is_mergeable(self):
        histogram = LogHistogram()
        histogram.record(0.010, count=10)
        merged = merge_latency_payloads([histogram.summary_ms()] * 3)
        assert merged["count"] == 30
        assert merged["p50_ms"] == pytest.approx(10.0, rel=1 / 16)

    def test_empty_merge_is_zero(self):
        merged = merge_latency_payloads([])
        assert merged["count"] == 0
        assert merged["p99_ms"] == 0.0


# The acceptance property: percentiles of the merged histogram equal
# percentiles of one histogram over the pooled samples — exactly, for
# any split of any sample set across any number of workers.
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.floats(min_value=1e-6, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=0, max_size=40,
        ),
        min_size=1, max_size=6,
    )
)
def test_merged_percentiles_equal_pooled_percentiles(worker_samples):
    per_worker = []
    pooled = LogHistogram()
    for samples in worker_samples:
        histogram = LogHistogram()
        for value in samples:
            histogram.record(value)
            pooled.record(value)
        per_worker.append(histogram)
    merged = LogHistogram.merged(
        LogHistogram.from_dict(h.to_dict()) for h in per_worker
    )
    assert merged.count == pooled.count
    assert merged.total == pytest.approx(pooled.total)
    for q in (0, 25, 50, 75, 90, 95, 99, 100):
        assert merged.percentile(q) == pooled.percentile(q)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=80,
    )
)
def test_percentile_tracks_true_rank_statistic(samples):
    """Histogram percentiles stay within one bucket of the exact answer."""
    histogram = LogHistogram()
    for value in samples:
        histogram.record(value)
    ordered = sorted(samples)
    for q in (50, 95, 99):
        exact = ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
        reported = histogram.percentile(q)
        assert reported <= max(samples)
        assert reported >= min(samples)
        # Reported value within the quantisation error of SOME sample
        # at or around the rank (bucket width is 1/16 relative).
        assert any(
            abs(reported - candidate) <= candidate / 8 + 1e-12
            for candidate in ordered
        )


# ----------------------------------------------------------------------
# QueryStats merging (satellite: one fold implementation)
# ----------------------------------------------------------------------
class TestQueryStatsMerge:
    def test_merge_adds_every_field(self):
        a = QueryStats(iterations=1, distance_computations=2,
                       lower_bound_computations=3, heap_insertions=4,
                       heaps_created=5)
        b = QueryStats(iterations=10, distance_computations=20,
                       lower_bound_computations=30, heap_insertions=40,
                       heaps_created=50)
        a += b
        assert a.iterations == 11
        assert a.distance_computations == 22
        assert a.lower_bound_computations == 33
        assert a.heap_insertions == 44
        assert a.heaps_created == 55
        assert b.iterations == 10  # merge never mutates the right side

    def test_dict_round_trip(self):
        stats = QueryStats(iterations=7, heap_insertions=3)
        assert QueryStats.from_dict(stats.to_dict()).to_dict() == stats.to_dict()


# ----------------------------------------------------------------------
# ServerMetrics
# ----------------------------------------------------------------------
class TestServerMetrics:
    def test_error_latency_recorded_separately(self):
        metrics = ServerMetrics()
        metrics.record_request("/query", 0.010)
        metrics.record_request("/query", 0.500, error=True)
        snapshot = metrics.snapshot()
        assert snapshot["latency"]["count"] == 1
        assert snapshot["error_latency"]["count"] == 1
        assert snapshot["error_latency"]["p50_ms"] == pytest.approx(500, rel=1 / 16)
        assert snapshot["errors"] == {"/query": 1}
        # The per-endpoint success histogram excludes the errored sample.
        assert snapshot["endpoints"]["/query"]["count"] == 1

    def test_query_stats_fold_and_latency(self):
        metrics = ServerMetrics()
        metrics.record_query_stats(QueryStats(iterations=3), seconds=0.020)
        metrics.record_query_stats(QueryStats(iterations=4), seconds=0.040)
        metrics.record_query_stats(QueryStats(iterations=9), cached=True)
        snapshot = metrics.snapshot()
        assert snapshot["queries_served"] == 3
        assert snapshot["query_stats"]["iterations"] == 7  # cached excluded
        assert snapshot["query_latency"]["count"] == 2

    def test_concurrent_hammer_preserves_totals(self):
        """8 threads x 250 records each: every counter lands."""
        metrics = ServerMetrics()
        threads = 8
        per_thread = 250
        barrier = threading.Barrier(threads)

        def hammer(seed):
            barrier.wait()
            for i in range(per_thread):
                endpoint = "/query" if (seed + i) % 2 else "/batch"
                error = i % 10 == 0
                metrics.record_request(endpoint, 0.001 * (i + 1), error=error)
                metrics.record_query_stats(
                    QueryStats(iterations=1, distance_computations=2),
                    seconds=0.002,
                )
                metrics.record_stage("processor.search", 0.001)
                if i % 25 == 0:
                    metrics.record_shed()
                    metrics.record_timeout()

        workers = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        snapshot = metrics.snapshot()
        total = threads * per_thread
        errors = threads * len([i for i in range(per_thread) if i % 10 == 0])
        assert snapshot["requests_total"] == total
        assert sum(snapshot["errors"].values()) == errors
        assert snapshot["latency"]["count"] == total - errors
        assert snapshot["error_latency"]["count"] == errors
        assert snapshot["queries_served"] == total
        assert snapshot["query_stats"]["iterations"] == total
        assert snapshot["query_stats"]["distance_computations"] == 2 * total
        assert snapshot["query_latency"]["count"] == total
        assert snapshot["stages"]["processor.search"]["count"] == total
        assert snapshot["shed"] == threads * 10
        assert snapshot["timeouts"] == threads * 10

    def test_trace_sink_builds_stage_histograms(self):
        metrics = ServerMetrics()
        tracer = Tracer(enabled=True)
        tracer.add_sink(metrics.record_trace)
        with tracer.trace("http.query") as root:
            with span("engine.execute"):
                with timed("oracle.distance"):
                    pass
                with timed("oracle.distance"):
                    pass
        assert root.duration > 0
        stages = metrics.snapshot()["stages"]
        assert stages["engine.execute"]["count"] == 1
        assert stages["oracle.distance"]["count"] == 1  # per-trace total


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        cm = tracer.trace("http.query")
        with cm as root:
            assert current_span() is None
            assert span("child") is cm.__class__() or True  # shared noop
            with span("child"):
                pass
            with timed("op"):
                pass
            root.annotate(x=1)
            root.add_time("op", 0.5)
        assert tracer.traces_finished == 0

    def test_span_tree_structure(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("root", kind="bknn") as root:
            with span("stage.a"):
                with timed("op.hot"):
                    pass
                with timed("op.hot"):
                    pass
            with span("stage.b", detail=7):
                pass
        assert [child.name for child in root.children] == ["stage.a", "stage.b"]
        assert root.children[0].timers["op.hot"][0] == 2
        assert root.children[1].attrs == {"detail": 7}
        assert root.trace_id and len(root.trace_id) == 16
        payload = root.to_dict()
        clone = Span.from_dict(payload)
        assert clone.to_dict() == payload

    def test_attach_carries_span_across_threads(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("root") as root:
            def worker():
                with attach(root):
                    with span("threaded.stage"):
                        pass
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert [c.name for c in root.children] == ["threaded.stage"]

    def test_forced_trace_and_graft(self):
        """The cluster pattern: force-traced worker tree grafted back."""
        tracer = Tracer(enabled=False)
        with tracer.trace("worker.query", trace_id="abcd" * 4, force=True) as wroot:
            wroot.worker = "worker-0"
            with span("engine.execute"):
                pass
        shipped = wroot.to_dict()  # crosses the IPC pipe as JSON

        parent_tracer = Tracer(enabled=True)
        with parent_tracer.trace("http.query") as root:
            with span("cluster.dispatch") as dispatch:
                dispatch.graft(Span.from_dict(shipped))
        dispatch_span = root.children[0]
        assert dispatch_span.children[0].worker == "worker-0"
        assert dispatch_span.children[0].trace_id == "abcd" * 4

    def test_ring_buffer_and_slow_log(self):
        tracer = Tracer(enabled=True, buffer_size=4, slow_threshold=0.0)
        for i in range(6):
            with tracer.trace(f"t{i}"):
                pass
        recent = tracer.recent_traces()
        assert len(recent) == 4  # ring buffer keeps the newest
        assert recent[-1]["name"] == "t5"
        assert tracer.traces_finished == 6
        assert len(tracer.slow_traces()) >= 1  # threshold 0: everything

    def test_sink_failures_do_not_break_tracing(self):
        tracer = Tracer(enabled=True)
        tracer.add_sink(lambda root: 1 / 0)
        with tracer.trace("guarded"):
            pass
        assert tracer.traces_finished == 1

    def test_format_trace_mentions_stages_and_timers(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("http.query") as root:
            with span("engine.execute"):
                with timed("oracle.distance"):
                    pass
        text = format_trace(root.to_dict())
        assert "http.query" in text
        assert "engine.execute" in text
        assert "oracle.distance" in text
        assert "ms" in text


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"        # metric name
    r"(\{[^{}]*\})?"                      # optional labels
    r" [^ ]+$"                            # value
)


def parse_exposition(text):
    """Minimal stdlib validation of Prometheus text format 0.0.4.

    Returns {metric_name: [(labels_str, value_str)]}; raises AssertionError
    on malformed lines.  The CI smoke test uses the same checks.
    """
    samples = {}
    typed = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            assert len(parts) >= 4, f"bad comment line: {line!r}"
            if parts[1] == "TYPE":
                typed[parts[2]] = parts[3]
            continue
        assert _SAMPLE_RE.match(line), f"bad sample line: {line!r}"
        name_and_labels, value = line.rsplit(" ", 1)
        if "{" in name_and_labels:
            name, labels = name_and_labels.split("{", 1)
            labels = "{" + labels
        else:
            name, labels = name_and_labels, ""
        float(value)  # must parse as a number
        samples.setdefault(name, []).append((labels, value))
    return samples, typed


class TestPrometheusRendering:
    def _snapshot(self):
        metrics = ServerMetrics()
        metrics.record_request("/query", 0.012)
        metrics.record_request("/batch", 0.003)
        metrics.record_request("/query", 0.200, error=True)
        metrics.record_query_stats(QueryStats(iterations=5), seconds=0.010)
        metrics.record_stage("processor.search", 0.008)
        snapshot = metrics.snapshot()
        snapshot["cache"] = {
            "capacity": 64, "entries": 2, "hits": 3, "misses": 4,
            "invalidations": 1, "hit_rate": 3 / 7,
        }
        snapshot["queue_depth"] = 1
        snapshot["workers"] = 4
        snapshot["max_queue"] = 64
        snapshot["nvd_build"] = {
            "total": 20, "completed": 20, "running": False,
            "elapsed_seconds": 1.5,
        }
        snapshot["tracing"] = {"enabled": True, "traces_finished": 9}
        snapshot["cluster"] = {
            "workers": 2, "alive": 2, "restarts": 0,
            "fallback_queries": 0, "retried_requests": 0,
            "updates_applied": 3, "supervisor_sweeps": 11,
            "worker_status": {
                "worker-0": {"alive": True, "restarts": 0,
                             "inflight": 0, "requests": 5},
            },
            "per_worker": {
                "worker-0": {"query_latency": LogHistogram().summary_ms()},
            },
        }
        return snapshot

    def test_exposition_parses_and_covers_families(self):
        text = render_prometheus(self._snapshot())
        samples, typed = parse_exposition(text)
        for family in (
            "repro_requests_total",
            "repro_errors_total",
            "repro_queries_served_total",
            "repro_cache_hits_total",
            "repro_cache_hit_rate",
            "repro_queue_depth",
            "repro_query_stats_total",
            "repro_nvd_build_completed_total",
            "repro_traces_finished_total",
            "repro_cluster_workers",
            "repro_worker_up",
        ):
            assert family in samples, f"{family} missing from exposition"
        assert typed["repro_request_latency_seconds"] == "histogram"

    def test_histogram_series_are_consistent(self):
        text = render_prometheus(self._snapshot())
        samples, _ = parse_exposition(text)
        buckets = [
            (labels, int(value))
            for labels, value in samples["repro_request_latency_seconds_bucket"]
        ]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), "bucket series must be cumulative"
        assert buckets[-1][0].endswith('le="+Inf"}')
        inf_count = buckets[-1][1]
        total = int(samples["repro_request_latency_seconds_count"][0][1])
        assert inf_count == total == 2  # two successful requests
        # The 0.2 s errored request lives in the error histogram instead.
        error_total = int(samples["repro_error_latency_seconds_count"][0][1])
        assert error_total == 1

    def test_label_escaping(self):
        metrics = ServerMetrics()
        metrics.record_request('/odd"path\\x', 0.001)
        text = render_prometheus(metrics.snapshot())
        samples, _ = parse_exposition(text)
        assert any(
            '\\"' in labels and "\\\\" in labels
            for labels, _ in samples["repro_requests_total"]
        )

    def test_cumulative_respects_bounds_ladder(self):
        histogram = LogHistogram()
        histogram.record(0.0009)   # below 1 ms
        histogram.record(0.040)    # 40 ms
        histogram.record(5.5)      # above 5 s
        pairs = dict(histogram.cumulative(PROMETHEUS_BOUNDS))
        assert pairs[0.0025] == 1
        assert pairs[0.05] == 2
        assert pairs[5.0] == 2
        assert pairs[10.0] == 3


# ----------------------------------------------------------------------
# LatencyRecorder compatibility surface
# ----------------------------------------------------------------------
class TestLatencyRecorderCompat:
    def test_total_seconds_alias(self):
        recorder = LatencyRecorder()
        recorder.record(0.25)
        recorder.record(0.75)
        assert recorder.total_seconds == pytest.approx(1.0)

    def test_global_tracer_is_disabled_by_default(self):
        assert TRACER.enabled is False
        assert span("anything").__enter__().__class__.__name__ == "_Noop"
