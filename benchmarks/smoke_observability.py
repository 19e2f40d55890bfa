"""CI smoke test for the observability stack (stdlib-only validation).

Boots a traced ``repro.serve`` server over a small ladder dataset, replays
a Zipf-skewed load through real HTTP with the load generator, then
scrapes ``/v1/metrics?format=prometheus`` and ``/v1/debug/traces`` and
validates:

* the Prometheus exposition parses line-by-line (names, labels, numeric
  values — a small stdlib parser, no client library),
* every histogram's ``_bucket`` series is cumulative and consistent with
  its ``_count``,
* request totals in the exposition match the load that was offered,
* the trace ring buffer holds span trees with engine/processor stages,
* the sampling profiler round-trips over ``/v1/debug/profile`` and its
  **enabled overhead stays within budget**: a profiled replay's p50 may
  exceed the unprofiled p50 by at most ``PROFILER_BUDGET`` (plus a small
  absolute floor so one-core CI jitter cannot flake the gate), and a
  collapsed flame-graph artifact is written,
* the flight recorder captured the run's cache evictions and serves
  them causally ordered at ``/v1/debug/events``.

Run: ``PYTHONPATH=src python benchmarks/smoke_observability.py``
"""

import json
import os
import re
import sys
import urllib.request

from repro.core import KSpin
from repro.datasets import WorkloadGenerator, load_dataset
from repro.distance import DijkstraOracle
from repro.lowerbound import AltLowerBounder
from repro.serve import Engine, QueryServer, ServeClient, replay

DATASET = "DE-S"
REQUESTS = 60
NUM_DISTINCT = 12
CONCURRENCY = 4
K = 5

#: Enabled-profiler p50 regression budget: 10% relative, with an
#: absolute floor so sub-millisecond medians on a noisy one-core CI
#: runner cannot flake the gate on scheduler jitter alone.
PROFILER_BUDGET = 0.10
PROFILER_FLOOR_MS = 1.0

ARTIFACT = os.path.join(
    os.path.dirname(__file__), "results", "smoke_profile.collapsed"
)

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$"
)


def parse_exposition(text: str) -> tuple[dict, dict]:
    """Validate Prometheus text format 0.0.4 with the stdlib only.

    Returns ``({metric: [(labels, value)]}, {metric: type})``; raises
    ``AssertionError`` on any malformed line.
    """
    samples: dict = {}
    typed: dict = {}
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
        name = name_and_labels.split("{", 1)[0]
        float(value)  # every sample value must be numeric
        samples.setdefault(name, []).append((name_and_labels, value))
    return samples, typed


def check_histogram_consistency(samples: dict) -> int:
    """Every ``_bucket`` family must be cumulative and match ``_count``."""
    families = 0
    for name in list(samples):
        if not name.endswith("_bucket"):
            continue
        base = name[: -len("_bucket")]
        # Group by label set minus `le` so labelled histograms check per-series.
        series: dict = {}
        for labelled, value in samples[name]:
            key = re.sub(r'le="[^"]*",?', "", labelled)
            series.setdefault(key, []).append(int(value))
        for counts in series.values():
            assert counts == sorted(counts), f"{name}: non-cumulative buckets"
        count_samples = samples.get(base + "_count")
        assert count_samples, f"{base}: missing _count"
        total = sum(int(v) for _, v in count_samples)
        inf_total = sum(
            int(v) for labelled, v in samples[name] if 'le="+Inf"' in labelled
        )
        assert inf_total == total, f"{base}: +Inf {inf_total} != count {total}"
        families += 1
    return families


def main() -> int:
    world = load_dataset(DATASET)
    kspin = KSpin(
        world.graph,
        world.keywords,
        oracle=DijkstraOracle(world.graph),
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
    )
    generator = WorkloadGenerator(world.graph, world.keywords, seed=7)
    queries = generator.zipf_queries(2, REQUESTS, num_distinct=NUM_DISTINCT)

    engine = Engine(kspin, cache_size=256)
    with QueryServer(
        engine, port=0, workers=4, trace=True, slow_query_threshold=0.0,
    ).start_background() as server:
        client = ServeClient(server.url)
        result = replay(client, queries, CONCURRENCY, k=K, kind="bknn")
        assert result.errors == 0 and result.shed == 0, result.as_dict()
        print(f"load: {result.requests} requests at c={CONCURRENCY}, "
              f"{result.qps:.1f} qps")

        with urllib.request.urlopen(
            f"{server.url}/v1/metrics?format=prometheus", timeout=30
        ) as response:
            content_type = response.headers["Content-Type"]
            text = response.read().decode()
        assert content_type.startswith("text/plain"), content_type

        samples, typed = parse_exposition(text)
        assert "repro_requests_total" in samples, "no request counters"
        served = sum(int(v) for _, v in samples["repro_requests_total"])
        assert served >= REQUESTS, f"exposition lost requests: {served}"
        assert typed.get("repro_request_latency_seconds") == "histogram"
        assert "repro_cache_hits_total" in samples, "no cache counters"
        assert "repro_stage_latency_seconds_bucket" in samples, (
            "tracing produced no per-stage histograms"
        )
        families = check_histogram_consistency(samples)
        print(f"prometheus: {len(samples)} series across "
              f"{families} histogram families — exposition OK")

        with urllib.request.urlopen(
            f"{server.url}/v1/debug/traces", timeout=30
        ) as response:
            traces = json.loads(response.read())["result"]
        assert traces["tracing"]["enabled"]
        assert traces["recent"], "no traces buffered"
        stages = {
            node["name"]
            for trace in traces["recent"]
            for node in _walk(trace)
        }
        assert "engine.execute" in stages, stages
        print(f"traces: {len(traces['recent'])} buffered, "
              f"stages seen: {sorted(stages)}")

        check_profiler_overhead(server, client, queries)
        check_flight_recorder(server, client)
    print("observability smoke: OK")
    return 0


def check_profiler_overhead(server, client, queries) -> None:
    """Enabled-profiler p50 must stay within the regression budget."""
    baseline = replay(client, queries, CONCURRENCY, k=K, kind="bknn")
    _get(f"{server.url}/v1/debug/profile?action=start&hz=97")
    profiled = replay(client, queries, CONCURRENCY, k=K, kind="bknn")
    payload = json.loads(
        _get(f"{server.url}/v1/debug/profile?action=stop")
    )["result"]
    assert payload["enabled"] is False
    profilers = payload.get("profilers") or []
    samples = sum(int(p.get("samples", 0)) for p in profilers)
    assert samples > 0, "profiler collected nothing during the replay"
    budget_ms = max(
        baseline.p50_ms * (1.0 + PROFILER_BUDGET),
        baseline.p50_ms + PROFILER_FLOOR_MS,
    )
    assert profiled.p50_ms <= budget_ms, (
        f"profiler overhead blew the budget: p50 {baseline.p50_ms:.3f} -> "
        f"{profiled.p50_ms:.3f} ms (budget {budget_ms:.3f} ms)"
    )
    collapsed = _get(f"{server.url}/v1/debug/profile?format=collapsed")
    assert collapsed.strip(), "empty collapsed flame graph"
    for line in filter(None, collapsed.split("\n")):
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 1 and stack, f"bad collapsed line {line!r}"
    os.makedirs(os.path.dirname(ARTIFACT), exist_ok=True)
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        handle.write(collapsed)
    print(f"profiler: {samples} samples, p50 {baseline.p50_ms:.2f} -> "
          f"{profiled.p50_ms:.2f} ms (budget {budget_ms:.2f} ms); "
          f"artifact {os.path.relpath(ARTIFACT)}")


def check_flight_recorder(server, client) -> None:
    """The run's cache evictions must appear, causally ordered."""
    client.query({"vertex": 0, "k": K, "keywords": ["kw0000"]})  # ensure one cached entry ...
    client.update(op="insert", object=1, document=["kw0000"])  # ... evicted
    payload = json.loads(_get(f"{server.url}/v1/debug/events"))["result"]
    events = payload["events"]
    assert events, "flight recorder is empty after a full replay"
    kinds = {event["kind"] for event in events}
    assert "cache.evict" in kinds, kinds
    last_seq: dict = {}
    for event in events:
        source = event["source"]
        assert event["seq"] > last_seq.get(source, 0), "seq regressed"
        last_seq[source] = event["seq"]
    print(f"events: {len(events)} buffered from {sorted(last_seq)}, "
          f"kinds {sorted(kinds)}")


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode()


def _walk(node: dict):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


if __name__ == "__main__":
    sys.exit(main())
