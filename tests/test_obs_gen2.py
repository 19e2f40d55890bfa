"""Generation-two observability: profiler and flight recorder.

Unit coverage for :mod:`repro.obs.profile` and :mod:`repro.obs.events`,
plus the serving-tier wiring: the ``/v1/debug/profile`` and
``/v1/debug/events`` endpoints and the verbose health breakdown.
The cluster test reconstructs a SIGKILL-ed worker restart from the
merged per-process event streams — the flight recorder's reason to
exist.
"""

import json
import math
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query
from repro.core import KSpin
from repro.datasets import load_dataset
from repro.distance import DijkstraOracle
from repro.lowerbound import AltLowerBounder
from repro.obs.events import (
    FlightRecorder,
    format_event,
    merge_streams,
    to_jsonl,
)
from repro.obs.histogram import LogHistogram
from repro.obs.profile import (
    SamplingProfiler,
    merge_folded,
    render_collapsed,
)
from repro.obs.trace import TRACER, Tracer, format_trace
from repro.serve import ClusterCoordinator, Engine, QueryServer, ServeClient


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_seq_is_per_source_monotonic(self):
        recorder = FlightRecorder(source="w0")
        events = [recorder.emit("a"), recorder.emit("b", x=1), recorder.emit("c")]
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert all(e["source"] == "w0" for e in events)
        assert events[1]["fields"] == {"x": 1}
        assert "fields" not in events[0]

    def test_capacity_bounds_and_drop_counter(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.emit("tick", i=i)
        snapshot = recorder.snapshot()
        assert snapshot["buffered"] == 4
        assert snapshot["dropped"] == 6
        assert snapshot["emitted"] == 10
        assert snapshot["last_seq"] == 10
        # The survivors are the newest four, oldest first.
        assert [e["seq"] for e in recorder.events()] == [7, 8, 9, 10]

    def test_since_seq_and_since_ts_cursors(self):
        clock = FakeClock(100.0)
        recorder = FlightRecorder(clock=clock)
        recorder.emit("a")
        clock.t = 200.0
        recorder.emit("b")
        assert [e["kind"] for e in recorder.events(since_seq=1)] == ["b"]
        assert [e["kind"] for e in recorder.events(since_ts=150.0)] == ["b"]
        assert recorder.events(since_ts=200.0) == []  # exclusive

    def test_reset_restarts_sequencing(self):
        recorder = FlightRecorder()
        recorder.emit("a")
        recorder.reset()
        assert recorder.snapshot()["emitted"] == 0
        assert recorder.emit("b")["seq"] == 1

    def test_merge_preserves_per_source_order_under_clock_step(self):
        """A wall clock stepping backwards cannot reorder one source."""
        skewed = [
            {"seq": 1, "ts": 100.0, "source": "w0", "kind": "first"},
            {"seq": 2, "ts": 90.0, "source": "w0", "kind": "second"},
            {"seq": 3, "ts": 95.0, "source": "w0", "kind": "third"},
        ]
        other = [{"seq": 1, "ts": 92.0, "source": "w1", "kind": "only"}]
        merged = merge_streams([skewed, other])
        w0_kinds = [e["kind"] for e in merged if e["source"] == "w0"]
        assert w0_kinds == ["first", "second", "third"]
        assert len(merged) == 4

    def test_merge_interleaves_by_timestamp_deterministically(self):
        a = [{"seq": 1, "ts": 10.0, "source": "a", "kind": "a1"},
             {"seq": 2, "ts": 30.0, "source": "a", "kind": "a2"}]
        b = [{"seq": 1, "ts": 20.0, "source": "b", "kind": "b1"}]
        merged = merge_streams([a, b])
        assert [e["kind"] for e in merged] == ["a1", "b1", "a2"]
        assert merge_streams([b, a]) == merged  # input order irrelevant

    def test_jsonl_and_pretty_rendering(self):
        recorder = FlightRecorder(source="w9")
        event = recorder.emit("query.shed", queue_depth=7)
        lines = to_jsonl(recorder.events()).strip().split("\n")
        assert json.loads(lines[0])["kind"] == "query.shed"
        rendered = format_event(event)
        assert "w9" in rendered and "query.shed" in rendered
        assert "queue_depth=7" in rendered


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
def _burn(deadline: float) -> int:
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(128))
    return total


class TestSamplingProfiler:
    def test_disabled_profiler_has_no_thread_and_no_samples(self):
        profiler = SamplingProfiler()
        assert not profiler.enabled
        assert profiler.snapshot()["samples"] == 0
        assert profiler.folded() == {}
        assert not profiler.stop()  # stop when idle is a no-op

    def test_sampling_catches_the_busy_frame(self):
        profiler = SamplingProfiler(source="unit")
        assert profiler.start(hz=250)
        assert not profiler.start()  # double start refused
        _burn(time.perf_counter() + 0.4)
        assert profiler.stop()
        snapshot = profiler.snapshot()
        assert snapshot["samples"] > 0
        assert snapshot["ticks"] > 0
        assert snapshot["active_seconds"] > 0.1
        folded = profiler.folded()
        assert sum(folded.values()) == snapshot["samples"]
        assert any("_burn" in stack for stack in folded)
        top_frames = [row["frame"] for row in profiler.top(5)]
        assert any("_burn" in frame for frame in top_frames)

    def test_record_scope_starts_and_stops(self):
        profiler = SamplingProfiler()
        with profiler.record(hz=200):
            assert profiler.enabled
            _burn(time.perf_counter() + 0.1)
        assert not profiler.enabled
        assert profiler.snapshot()["samples"] >= 0

    def test_collapsed_output_and_merge(self):
        folded_a = {"w0;f;g": 3, "w0;f": 1}
        folded_b = {"w0;f;g": 2, "w1;h": 5}
        merged = merge_folded([folded_a, folded_b])
        assert merged == {"w0;f;g": 5, "w0;f": 1, "w1;h": 5}
        text = render_collapsed(merged)
        assert "w0;f;g 5" in text.split("\n")
        assert text.endswith("\n")
        assert render_collapsed({}) == ""

    def test_reset_clears_accumulated_stacks(self):
        profiler = SamplingProfiler()
        with profiler.record(hz=200):
            _burn(time.perf_counter() + 0.1)
        profiler.reset()
        assert profiler.snapshot()["samples"] == 0
        assert profiler.folded() == {}

    def test_bad_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler().start(hz=-1)


# ----------------------------------------------------------------------
# Hypothesis edge cases for LogHistogram (satellite)
# ----------------------------------------------------------------------
class TestHistogramEdgeCases:
    def test_empty_histogram_reads(self):
        histogram = LogHistogram()
        assert histogram.percentile(50) == 0.0
        assert histogram.percentile(99.9) == 0.0
        assert histogram.mean() == 0.0
        payload = histogram.to_dict()
        assert payload["min"] is None and payload["max"] is None
        restored = LogHistogram.from_dict(payload)
        assert restored.count == 0 and restored.percentile(50) == 0.0

    def test_merge_of_empties_is_empty(self):
        merged = LogHistogram.merged([LogHistogram(), LogHistogram()])
        assert merged.count == 0
        assert merged.mean() == 0.0
        assert merged.min == math.inf and merged.max == 0.0

    @given(value=st.floats(min_value=1e-6, max_value=1800.0,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_single_sample_collapses_every_percentile(self, value):
        histogram = LogHistogram()
        histogram.record(value)
        # min/max clamping makes every percentile exactly the sample.
        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert histogram.percentile(q) == value
        assert histogram.mean() == pytest.approx(value)

    @given(values=st.lists(
        st.floats(min_value=1e-6, max_value=1800.0,
                  allow_nan=False, allow_infinity=False),
        min_size=0, max_size=40,
    ))
    @settings(max_examples=50, deadline=None)
    def test_dict_round_trip_preserves_reads_and_clamps(self, values):
        histogram = LogHistogram()
        for value in values:
            histogram.record(value)
        restored = LogHistogram.from_dict(histogram.to_dict())
        assert restored.count == histogram.count
        assert restored.min == histogram.min
        assert restored.max == histogram.max
        for q in (1.0, 50.0, 95.0, 99.0):
            assert restored.percentile(q) == histogram.percentile(q)
        assert restored.mean() == pytest.approx(histogram.mean())
        if values:
            assert restored.percentile(100.0) <= max(values)
            assert restored.percentile(0.0) >= min(values)

    @given(values=st.lists(
        st.floats(min_value=1e-6, max_value=1800.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=50, deadline=None)
    def test_merge_with_empty_is_identity(self, values):
        histogram = LogHistogram()
        for value in values:
            histogram.record(value)
        merged = LogHistogram.merged([LogHistogram(), histogram])
        assert merged.to_dict() == histogram.to_dict()


# ----------------------------------------------------------------------
# Trace ring buffer under concurrency (satellite)
# ----------------------------------------------------------------------
class TestTraceRingBuffer:
    def test_eviction_keeps_newest_oldest_first(self):
        tracer = Tracer(enabled=True, buffer_size=8)
        for i in range(20):
            with tracer.trace(f"t{i}"):
                pass
        names = [t["name"] for t in tracer.recent_traces()]
        assert names == [f"t{i}" for i in range(12, 20)]
        assert tracer.traces_finished == 20

    def test_slow_threshold_is_inclusive(self):
        # duration >= threshold lands in the slow log: with a zero
        # threshold every finished trace qualifies, pinning the >=.
        tracer = Tracer(enabled=True, buffer_size=8, slow_threshold=0.0)
        with tracer.trace("anything"):
            pass
        assert len(tracer.slow_traces()) == 1
        tracer.configure(slow_threshold=math.inf)
        with tracer.trace("fast"):
            pass
        assert len(tracer.slow_traces()) == 1  # inf threshold admits nothing

    def test_reads_stable_during_concurrent_appends(self):
        tracer = Tracer(enabled=True, buffer_size=16)
        stop = threading.Event()
        errors = []

        def writer(tag):
            i = 0
            while not stop.is_set():
                with tracer.trace(f"{tag}-{i}", worker=tag):
                    pass
                i += 1

        threads = [
            threading.Thread(target=writer, args=(f"w{j}",), daemon=True)
            for j in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            deadline = time.perf_counter() + 0.5
            reads = 0
            while time.perf_counter() < deadline:
                recent = tracer.recent_traces()
                if len(recent) > 16:
                    errors.append(f"over capacity: {len(recent)}")
                for payload in recent:
                    if "name" not in payload or "duration_ms" not in payload:
                        errors.append(f"torn payload: {payload.keys()}")
                snapshot = tracer.snapshot()
                if snapshot["buffered"] > 16:
                    errors.append("snapshot over capacity")
                reads += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=2.0)
        assert not errors
        assert reads > 10
        assert tracer.traces_finished > 0


# ----------------------------------------------------------------------
# Trace CPU attribution + batch rollup rendering
# ----------------------------------------------------------------------
class TestTraceCpuAndRollup:
    def _traced_batch(self, items, spin=False):
        from repro.obs.trace import span

        tracer = Tracer(enabled=True)
        with tracer.trace("http.batch") as root:
            for i in range(items):
                with span("engine.execute", item=i) as child:
                    child.add_time("oracle.distance", 0.001 * (i + 1))
                    if spin:
                        _burn(time.perf_counter() + 0.005)
        return root.to_dict()

    def test_cpu_attribution_recorded_for_busy_spans(self):
        payload = self._traced_batch(1, spin=True)
        child = payload["children"][0]
        assert child["cpu_ms"] > 0.0
        assert child["cpu_ms"] <= child["duration_ms"] * 1.5  # sanity
        # Round-trip stays exact with the optional field present.
        from repro.obs.trace import Span

        assert Span.from_dict(payload).to_dict() == payload

    def test_batch_children_roll_up_into_table(self):
        text = format_trace(self._traced_batch(6))
        assert "engine.execute ×6" in text
        assert "per item:" in text
        assert "oracle.distance" in text  # merged timers survive
        # one table row per item, keyed by index attr
        assert "item=0" in text and "item=5" in text

    def test_rollup_elides_past_row_cap(self):
        text = format_trace(self._traced_batch(20))
        assert "engine.execute ×20" in text
        assert "(+4 more items)" in text

    def test_small_sibling_groups_render_individually(self):
        text = format_trace(self._traced_batch(3))
        assert "×" not in text
        assert text.count("engine.execute") == 3


# ----------------------------------------------------------------------
# Serving wiring: endpoints and health breakdown
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    return load_dataset("DE-S")


@pytest.fixture()
def kspin(world):
    return KSpin(
        world.graph,
        world.keywords,
        oracle=DijkstraOracle(world.graph),
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
    )


@pytest.fixture()
def traced_server(kspin):
    engine = Engine(kspin, cache_size=64)
    server = QueryServer(engine, port=0, workers=4, trace=True)
    try:
        with server.start_background() as running:
            yield running
    finally:
        TRACER.configure(enabled=False)  # the tracer is process-global


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, response.headers, response.read().decode()


class TestServingWiring:
    def test_profile_endpoint_lifecycle(self, traced_server):
        base = f"{traced_server.url}/v1/debug/profile"
        status, _h, body = _get(f"{base}?action=start&hz=200")
        assert status == 200
        assert json.loads(body)["result"]["enabled"] is True
        client = ServeClient(traced_server.url)
        for _ in range(20):
            client.query({"vertex": 0, "k": 2, "keywords": ["kw0000", "kw0001"]})
        status, _h, body = _get(f"{base}?action=stop")
        payload = json.loads(body)["result"]
        assert payload["enabled"] is False
        assert isinstance(payload["folded"], dict)
        status, headers, text = _get(f"{base}?format=collapsed")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        # every folded line is "stack count" with a process prefix
        for line in filter(None, text.split("\n")):
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert stack.startswith("main;")

    def test_profile_bad_action_is_400(self, traced_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{traced_server.url}/v1/debug/profile?action=explode")
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{traced_server.url}/v1/debug/profile?action=start&hz=0")
        assert excinfo.value.code == 400

    def test_events_endpoint_reports_cache_evictions(self, traced_server):
        client = ServeClient(traced_server.url)
        client.query({"vertex": 0, "k": 2, "keywords": ["kw0000"]})  # populate the cache
        client.update(op="insert", object=3, document=["kw0000"])  # evict it
        payload = json.loads(
            _get(f"{traced_server.url}/v1/debug/events")[2]
        )["result"]
        kinds = [e["kind"] for e in payload["events"]]
        assert "cache.evict" in kinds
        assert payload["recorder"]["emitted"] >= 1
        # since_ts strictly after the last event filters everything out
        last_ts = payload["events"][-1]["ts"]
        later = json.loads(_get(
            f"{traced_server.url}/v1/debug/events?since_ts={last_ts}"
        )[2])["result"]
        assert all(e["ts"] > last_ts for e in later["events"])

    def test_healthz_verbose_breakdown(self, traced_server):
        brief = json.loads(_get(f"{traced_server.url}/v1/healthz")[2])["result"]
        assert "admission" not in brief
        verbose = json.loads(
            _get(f"{traced_server.url}/v1/healthz?verbose=1")[2]
        )["result"]
        assert verbose["status"] == "ok"
        assert set(verbose["admission"]) == {
            "queue_depth", "workers", "max_queue"
        }
        assert not {"slo", "degraded", "pressure"} & set(verbose)
        assert verbose["tracing"]["enabled"] is True
        assert verbose["events"]["capacity"] >= 1
        assert verbose["profiler"]["enabled"] in (True, False)

    def test_shed_requests_emit_flight_recorder_events(self, kspin):
        engine = Engine(kspin, cache_size=0)
        server = QueryServer(engine, port=0, workers=1, max_queue=0)
        with server.start_background() as running:
            release = threading.Event()
            running.pool.submit(lambda: release.wait(5.0))  # occupy the worker
            try:
                shed = 0
                for _ in range(8):
                    try:
                        _get(f"{running.url}/v1/query?vertex=0&k=2"
                             "&keywords=kw0000")
                    except urllib.error.HTTPError as error:
                        assert error.code == 503
                        shed += 1
                assert shed > 0
            finally:
                release.set()
            payload = json.loads(
                _get(f"{running.url}/v1/debug/events")[2]
            )["result"]
            shed_events = [
                e for e in payload["events"] if e["kind"] == "query.shed"
            ]
            assert shed_events
            assert set(shed_events[-1]["fields"]) == {"endpoint", "queue_depth"}


# ----------------------------------------------------------------------
# Cluster: merged event streams reconstruct a SIGKILL restart
# ----------------------------------------------------------------------
class TestClusterEventStreams:
    def test_merged_streams_reconstruct_worker_restart(self, kspin):
        queries = [
            Query(vertex, ("kw0000", "kw0001"), k=2) for vertex in range(6)
        ]
        with ClusterCoordinator(
            kspin, num_workers=2, cache_size=16, health_interval=60.0,
        ) as cluster:
            cluster.execute_many(queries)  # batch.scatter/gather on main
            victim = cluster.workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=5.0)
            cluster.restart_worker(0)
            cluster.execute_many(queries)  # traffic over the new fleet
            merged = cluster.events_snapshot()

        kinds = [event["kind"] for event in merged]
        assert "worker.spawn" in kinds       # initial fleet bring-up
        assert "worker.death" in kinds       # the SIGKILL was recorded
        assert "worker.restart" in kinds     # and the replacement
        assert "batch.scatter" in kinds and "batch.gather" in kinds
        # The replacement worker's own stream starts with worker.start.
        starts = [e for e in merged if e["kind"] == "worker.start"]
        assert starts and all(e["seq"] == 1 for e in starts)
        assert {e["fields"]["mode"] for e in starts} <= {"fork", "rehydrate"}
        # Causal order: per source, seq strictly increases in the merge.
        last_seq = {}
        for event in merged:
            source = event["source"]
            assert event["seq"] > last_seq.get(source, 0), (
                f"seq regressed for {source}"
            )
            last_seq[source] = event["seq"]
        # Three distinct processes contributed to one record.
        assert len(last_seq) >= 3

    def test_cluster_profile_scatter_merges_with_source_prefixes(self, kspin):
        with ClusterCoordinator(
            kspin, num_workers=2, cache_size=0, health_interval=60.0,
        ) as cluster:
            started = cluster.profile("start", hz=200)
            assert started["enabled"] is True
            queries = [
                Query(vertex, ("kw0000",), k=2) for vertex in range(4)
            ] * 5
            cluster.execute_many(queries)
            time.sleep(0.1)
            stopped = cluster.profile("stop")
        assert stopped["enabled"] is False
        assert len(stopped["profilers"]) == 3  # coordinator + 2 workers
        sources = {p["source"] for p in stopped["profilers"]}
        assert sources == {"main", "worker-0", "worker-1"}
        for stack in stopped["folded"]:
            assert stack.split(";", 1)[0] in sources
