"""The six workloads: one end-to-end pass and one layer pass each.

Workloads come in pairs that stress different layers, because
``CompositeOracle`` and the seeding backends route each query class to a
different implementation, so a gain on one route is invisible on another:

``core_ch``            NVD seeding + ALT, CH distances: what ``repro serve``
                       gives with no flags; ``distance`` does most of the work.
``core_nvd``           NVD seeding + ALT, composite oracle (p2p -> labels):
                       the paper's own machinery is the bottleneck.
``core_labels``        label seeding: ALT and the NVD heaps do nothing.
``http_zipf``          ``POST /v1/query``, 2 keep-alive connections, Zipf over
                       256 queries in a 1024-entry cache: the HTTP tier works,
                       ``core`` almost never.
``http_batch_cold``    ``POST /v1/batch`` of 32 unique queries, 1 connection:
                       the envelope amortised, the cache overflowed.
``engine_update_mix``  90 % Zipf reads / 10 % §6.2 writes on an ``Engine`` in
                       a child: write lock, invalidation, label -> NVD fallback.

In-process workloads run single-threaded in the runner; the others drive a
real child process loaded from the saved image.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import pickle
import resource
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field

import estimators
import indeximage
import opstream
from checks import Reference, ShadowReference
from estimators import Phase, closed_loop
from httpdrive import Child, KeepAliveClient, ServerChild
from layerspans import SpanRecorder, traced

from repro.api import Query
from repro.core.heap_generator import HeapGenerator
from repro.core.query_processor import QueryProcessor
from repro.persist import load_kspin, save_kspin
from repro.serve import Engine

HERE = os.path.dirname(os.path.abspath(__file__))

#: Unique queries in the block the ``core_*`` loops cycle over.  One pass
#: is one unit of identical work; with 256 the slowest plan finishes about
#: 27 passes in 12 s, and the quiet pass needs many.
BLOCK = 256
ZIPF_POOL = 256
BATCH = 32
#: 256 batches of unique queries: eight times what the cache can hold.
BATCH_POOL = 256
#: Distinct queries the mix reads, each equally often; they fit the cache,
#: so only invalidation by the writes makes a read miss.
MIX_POOL = 512
#: Operations in the block the mix replays; one pass takes about a second.
MIX_BLOCK = 2048
CACHE_SIZE = 1024
SERVER_WORKERS = 2
#: Never more connections than the host has cores for.
CONNECTIONS = 2
WARMUP_BATCHES = 8
#: Operations that warm the child's interpreter before the timed passes.
MIX_WARMUP = 500
#: Set-ups timed per run.  Half run before the timed phase and half after
#: it: a slow stretch of the host lasts seconds, so set-ups timed back to
#: back would all sit inside one or all miss it.
COLD_STARTS = 5
BUILDS = 8
LAYER_OPS = 2000
#: A keep-alive round trip takes 44-67 ms today, so these three counts are
#: what a layer pass can afford inside the time a run may take.
LAYER_REQUESTS = 200
RTT_KEEPALIVE_REQUESTS = 50
RTT_CLOSE_REQUESTS = 100

CORE_PLANS = {"core_ch": "ch", "core_nvd": "nvd", "core_labels": "labels"}
HTTP_WORKLOADS = ("http_zipf", "http_batch_cold")
NAMES = (*CORE_PLANS, *HTTP_WORKLOADS, "engine_update_mix")


@dataclass
class Settings:
    """What one invocation of the runner fixes for every workload."""

    seed: int
    seconds: float
    dataset: str = "US-S"
    #: The from-nothing build of ``core_*`` set-up runs on this rung: the
    #: US-S build takes longer than a whole run may.
    setup_dataset: str = "ME-S"
    image: str = ""
    image_build: dict = field(default_factory=dict)
    #: A smoke run checks the harness, not the program: it divides every
    #: fixed count below by ten.
    smoke: bool = False

    def count(self, full: int) -> int:
        return max(1, full // 10) if self.smoke else full


@dataclass
class Outcome:
    """What the end-to-end pass of one workload measured."""

    phase: Phase
    unit: int
    attempted: int
    failed: int
    setup_s: list[float]
    peak_rss_mb: float
    notes: dict = field(default_factory=dict)


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _is_query(op) -> bool:
    return isinstance(op, Query)


def _scratch(name: str) -> str:
    return os.path.join(indeximage.CACHE, f"{name}-{os.getpid()}")


def _planned(kspin, plan: str):
    """The loaded image under one of the three serving plans."""
    if plan != "ch":
        kspin.set_seeding(plan)
        return kspin
    variant = copy.copy(kspin)
    variant.oracle = kspin.oracle.ch
    variant.heap_generator = HeapGenerator(kspin.lower_bounder)
    variant.processor = QueryProcessor(
        kspin.graph, kspin.index, kspin.relevance, variant.oracle, variant.heap_generator
    )
    return variant


# ----------------------------------------------------------------------
# core_*: KSpin.execute in the runner
# ----------------------------------------------------------------------
def _build_samples(plan: str, settings: Settings, builds: int) -> list[float]:
    """Seconds from nothing to the first answer, ``builds`` times."""
    from repro.datasets import load_dataset

    world = load_dataset(settings.setup_dataset)
    first = opstream.unique_queries(world.graph, world.keywords, settings.seed, 1)[0]
    samples = []
    for _ in range(builds):
        started = time.perf_counter()
        kspin, _ = indeximage.build_from_nothing(
            settings.setup_dataset,
            oracle="ch" if plan == "ch" else "composite",
            seeding="labels" if plan == "labels" else "nvd",
        )
        kspin.execute(first)
        samples.append(time.perf_counter() - started)
    return samples


def run_core(name: str, settings: Settings) -> Outcome:
    builds = settings.count(BUILDS)
    setup = _build_samples(CORE_PLANS[name], settings, builds // 2)
    kspin = load_kspin(settings.image)
    engine = _planned(kspin, CORE_PLANS[name])
    reference = Reference(kspin)
    block = opstream.unique_queries(kspin.graph, kspin.dataset, settings.seed, BLOCK)
    # Warm-up: one pass, and every answer of it is checked.
    expected = [engine.execute(query).pairs() for query in block]
    failed = sum(reference.mismatches(q, pairs) for q, pairs in zip(block, expected))
    phase, kept = closed_loop(
        engine.execute, itertools.cycle(block), settings.seconds, _is_query, settings.seed
    )
    peak_rss_mb = _own_peak_rss_mb()
    # Every pass repeats the block, so a kept answer must equal the
    # checked answer of the same query.
    for position, _, result in kept:
        if isinstance(result, Exception) or result.pairs() != expected[position % BLOCK]:
            failed += 1
    return Outcome(
        phase=phase,
        unit=BLOCK,
        attempted=len(block) + len(phase.ends),
        failed=failed,
        setup_s=setup + _build_samples(CORE_PLANS[name], settings, builds - builds // 2),
        peak_rss_mb=peak_rss_mb,
        notes={"checked": len(block) + len(kept)},
    )


# ----------------------------------------------------------------------
# http_*: the real server in a child, keep-alive clients in the runner
# ----------------------------------------------------------------------
def _serve_argv(settings: Settings) -> list[str]:
    return [
        "serve", "--index", settings.image, "--seeding", "labels",
        "--workers", str(SERVER_WORKERS), "--cache-size", str(CACHE_SIZE),
        "--port", "0",
    ]


def _query_body(query: Query) -> bytes:
    return json.dumps(query.to_dict()).encode()


def _batch_body(queries: list[Query]) -> bytes:
    return json.dumps({"queries": [query.to_dict() for query in queries]}).encode()


def _pairs(result: dict) -> list[tuple[int, float]]:
    return [(obj, score) for obj, score in result["results"]]


def _cold_server(settings: Settings, body: bytes, path: str):
    """Spawn the server and get one answer; ``(seconds, server)``."""
    started = time.perf_counter()
    server = ServerChild(["-m", "repro", *_serve_argv(settings)])
    try:
        client = KeepAliveClient(server.url, keep_alive=False)
        status, _ = client.post(path, body)
        if status != 200:
            raise RuntimeError(f"first request answered {status}")
    except BaseException:
        server.close()
        raise
    return time.perf_counter() - started, server


def _http_requests(name: str, kspin, settings: Settings):
    """``(path, queries per request, bodies)`` of an HTTP workload."""
    if name == "http_zipf":
        queries = opstream.unique_queries(kspin.graph, kspin.dataset, settings.seed, ZIPF_POOL)
        return "/v1/query", [[q] for q in queries], [_query_body(q) for q in queries]
    queries = opstream.unique_queries(
        kspin.graph, kspin.dataset, settings.seed, BATCH * BATCH_POOL
    )
    groups = [queries[i : i + BATCH] for i in range(0, len(queries), BATCH)]
    return "/v1/batch", groups, [_batch_body(group) for group in groups]


def _request_schedules(name: str, groups, settings: Settings):
    """One endless sequence of request indices per connection."""
    if name == "http_zipf":
        return [
            opstream.zipf_ranks(len(groups), settings.seed, f"connection-{i}")
            for i in range(CONNECTIONS)
        ]
    # The warm-up batches are cached, so the loop never asks for them.
    return [itertools.cycle(range(WARMUP_BATCHES, len(groups)))]


def _answers(path: str, status: int, payload: dict) -> list[dict | None]:
    """The per-query results of one response; ``None`` marks a failure."""
    if status != 200 or not payload.get("ok"):
        return [None]
    if path == "/v1/query":
        return [payload["result"]]
    return [
        item["result"] if item.get("ok") else None for item in payload["result"]["items"]
    ]


def _warm_server(url: str, path: str, bodies, groups, reference: Reference, count: int):
    """Send the first ``count`` requests once; every answer is checked.

    Returns ``(failed, checked answers by request index)``.  Warm-up goes
    over ``Connection: close`` so it costs a millisecond a request.
    """
    client = KeepAliveClient(url, keep_alive=False)
    failed = 0
    known: dict[int, list] = {}
    for index in range(count):
        status, payload = client.post(path, bodies[index])
        results = _answers(path, status, payload)
        known[index] = [_pairs(result) if result else None for result in results]
        for query, pairs in zip(groups[index], known[index]):
            failed += pairs is None or reference.mismatches(query, pairs)
    return failed, known


def run_http(name: str, settings: Settings) -> Outcome:
    kspin = load_kspin(settings.image)
    reference = Reference(kspin)
    path, groups, bodies = _http_requests(name, kspin, settings)
    setup, server = [], None
    cold_starts = settings.count(COLD_STARTS)
    try:
        for _ in range(cold_starts - cold_starts // 2):
            if server is not None:
                server.close()
            seconds, server = _cold_server(settings, bodies[0], path)
            setup.append(seconds)
        warm = len(groups) if name == "http_zipf" else WARMUP_BATCHES
        failed, known = _warm_server(server.url, path, bodies, groups, reference, warm)
        attempted = sum(len(groups[i]) for i in range(warm))

        loops: list[tuple[Phase, list]] = []

        def drive(schedule, offset: int) -> None:
            client = KeepAliveClient(server.url)

            def request(index: int):
                # An HTTP error, a refusal or a per-item error is a failed
                # operation whether or not its answer is sampled.
                status, payload = client.post(path, bodies[index])
                answers = _answers(path, status, payload)
                if None in answers:
                    raise RuntimeError(f"HTTP {status}: {str(payload)[:200]}")
                return index, answers

            try:
                loops.append(
                    closed_loop(
                        request,
                        schedule,
                        settings.seconds,
                        lambda index: len(groups[index]),
                        settings.seed + offset,
                    )
                )
            finally:
                client.close()

        threads = [
            threading.Thread(target=drive, args=(schedule, i))
            for i, schedule in enumerate(_request_schedules(name, groups, settings))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if len(loops) != len(threads):
            raise RuntimeError("a connection's loop died before it measured anything")
        phase = Phase()
        for loop, kept in loops:
            phase.extend(loop)
            for _, index, result in kept:
                if isinstance(result, Exception):
                    failed += len(groups[index])
                    continue
                for query, answer, checked in itertools.zip_longest(
                    groups[index], result[1], known.get(index, [])
                ):
                    if checked is not None:
                        failed += _pairs(answer) != checked
                    else:
                        failed += reference.mismatches(query, _pairs(answer))
        attempted += sum(phase.weights)
        peak_rss_mb = server.peak_rss_mb()
        for _ in range(cold_starts // 2):
            server.close()
            seconds, server = _cold_server(settings, bodies[0], path)
            setup.append(seconds)

    finally:
        if server is not None:
            server.close()
    return Outcome(
        phase=phase.in_completion_order(),
        unit=1,
        attempted=attempted,
        failed=failed,
        setup_s=setup,
        peak_rss_mb=peak_rss_mb,
        notes={"connections": len(threads)},
    )


# ----------------------------------------------------------------------
# engine_update_mix: Engine.execute / Engine.apply in a child
# ----------------------------------------------------------------------
def _mix_ops(kspin, settings: Settings, count: int):
    pool = opstream.unique_queries(kspin.graph, kspin.dataset, settings.seed, MIX_POOL)
    return opstream.update_mix(kspin.graph, kspin.dataset, settings.seed, count, pool)


def _engine_child(job: dict) -> tuple[float, dict | None]:
    """Run one job in a child: ``(cold-start seconds, what it pickled)``."""
    job_path = _scratch("engine-job")
    job["out"] = _scratch("engine-out")
    with open(job_path, "wb") as handle:
        pickle.dump(job, handle)
    try:
        with Child([os.path.join(HERE, "engine_child.py"), job_path]) as child:
            child.read_line("READY")
            cold = time.perf_counter() - child.spawned
            if child.process.wait(timeout=job["seconds"] + 120) != 0:
                raise RuntimeError("the engine child failed")
        if not job["seconds"]:
            return cold, None
        with open(job["out"], "rb") as handle:
            return cold, pickle.load(handle)
    finally:
        for path in (job_path, job["out"]):
            if os.path.exists(path):
                os.unlink(path)


def run_update_mix(settings: Settings) -> Outcome:
    kspin = load_kspin(settings.image)
    block = _mix_ops(kspin, settings, MIX_BLOCK)
    job = {
        "image": settings.image, "cache_size": CACHE_SIZE, "ops": block[:1],
        "warmup": settings.count(MIX_WARMUP), "seconds": 0, "keep_offset": settings.seed,
    }
    cold_starts = settings.count(COLD_STARTS) - 1
    setup = [_engine_child(dict(job))[0] for _ in range(cold_starts // 2)]
    cold, measured = _engine_child({**job, "ops": block, "seconds": settings.seconds})
    setup.append(cold)
    setup += [_engine_child(dict(job))[0] for _ in range(cold_starts - cold_starts // 2)]
    phase: Phase = measured["phase"]
    # Every pass replays the block on a fresh image, so one replay on the
    # shadow documents checks them all: a kept BkNN answer must match the
    # documents as they stood at its position in the block.
    kept: dict[int, list] = {}
    for position, _, result in measured["kept"]:
        kept.setdefault(position, []).append(result)
    shadow = ShadowReference(kspin)
    failed = checked = 0
    for position, op in enumerate(block):
        if not _is_query(op):
            shadow.apply(op)
        for result in kept.get(position, ()):
            if isinstance(result, Exception):
                failed += 1
            elif _is_query(op) and op.kind == "bknn":
                checked += 1
                failed += shadow.mismatches(op, result.pairs())
    heaps = measured["label_heaps"] + measured["fallback_heaps"]
    updates = [
        latency
        for latency, weight in zip(estimators.quiet_pass(phase, MIX_BLOCK), phase.weights)
        if not weight
    ]
    return Outcome(
        phase=phase,
        unit=MIX_BLOCK,
        attempted=len(phase.ends),
        failed=failed,
        setup_s=setup,
        peak_rss_mb=measured["peak_rss_mb"],
        notes={
            "checked": checked,
            "fallback_ratio": measured["fallback_heaps"] / heaps if heaps else 0.0,
            "update_p50_ms": 1e3 * statistics.median(updates),
            "updates_per_pass": len(updates),
        },
    )


def run_end_to_end(name: str, settings: Settings) -> Outcome:
    if name in CORE_PLANS:
        return run_core(name, settings)
    if name in HTTP_WORKLOADS:
        return run_http(name, settings)
    return run_update_mix(settings)


def end_to_end_metrics(outcome: Outcome) -> dict[str, dict]:
    """The end-to-end metrics of one pass, with what they were best of."""
    if outcome.unit > 1:
        summary = estimators.summarise_passes(outcome.phase, outcome.unit)
        how = f"quiet pass of {len(summary.rates)}"
    else:
        summary = estimators.summarise_segments(outcome.phase)
        how = f"best of {len(summary.rates)} segments"
    central = {"samples": summary.query_samples, "how": how}
    return {
        "throughput_qps": {
            "value": summary.throughput, "unit": "1/s", **central,
            "part_min": min(summary.rates), "part_max": max(summary.rates),
        },
        "latency_p50_ms": {"value": 1e3 * summary.median, "unit": "ms", **central},
        "latency_p95_ms": {"value": 1e3 * summary.tail, "unit": "ms", **central},
        "setup_s": {
            "value": statistics.median(outcome.setup_s), "unit": "s",
            "samples": len(outcome.setup_s), "how": "median of the set-ups",
            "part_min": min(outcome.setup_s), "part_max": max(outcome.setup_s),
        },
        "peak_rss_mb": {
            "value": outcome.peak_rss_mb, "unit": "MB", "samples": 1, "how": "high-water mark",
        },
    }


# ----------------------------------------------------------------------
# Layer passes: a fixed number of operations under the timing wrappers
# ----------------------------------------------------------------------
#: Every per-layer metric and its unit.  ``us/op`` is mean self time per
#: operation of the pass, ``us/call`` mean duration of one call, ``/op``
#: and ``/query`` are counts that repeat exactly for a given seed.
LAYER_METRICS = {
    "serve.http.self_us": "us/op",
    "serve.http.rtt_keepalive_us": "us/op",
    "serve.http.rtt_close_us": "us/op",
    "serve.admission.wait_us": "us/op",
    "api.parse_us": "us/op",
    "api.serialise_us": "us/op",
    "serve.engine.self_us": "us/op",
    "serve.cache.lookup_us": "us/op",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.evicted_per_update": "/op",
    "core.query_processor.self_us": "us/op",
    "core.query_processor.iterations_per_query": "/query",
    "core.heap_generator.us": "us/op",
    "core.heap_generator.insertions_per_query": "/query",
    "lowerbound.alt.us": "us/op",
    "lowerbound.alt.pairs_per_query": "/query",
    "core.label_seeding.us": "us/op",
    "core.label_seeding.fallback_ratio": "ratio",
    "core.label_seeding.memory_bytes": "bytes",
    "distance.p2p_us": "us/call",
    "distance.calls_per_query": "/query",
    "distance.useful_ratio": "ratio",
    "distance.route.p2p_phl": "/query",
    "distance.route.p2p_ch": "/query",
    "distance.route.batch_labels": "/query",
    "distance.route.batch_sssp": "/query",
    "distance.route.knn_labels": "/query",
    "core.keyword_index.insert_us": "us/call",
    "core.keyword_index.delete_us": "us/call",
    "core.keyword_index.add_keyword_us": "us/call",
    "core.keyword_index.rebuild_us": "us/call",
    "core.keyword_index.rebuilt_keywords": "/op",
    "core.keyword_index.pending_peak": "count",
    "lowerbound.alt.build_s": "s",
    "distance.build_s": "s",
    "core.keyword_index.build_s": "s",
    "distance.memory_bytes": "bytes",
    "core.memory_bytes": "bytes",
    "persist.save_s": "s",
    "persist.load_s": "s",
    "persist.image_bytes": "bytes",
    "bench.untraced_share": "ratio",
    "bench.wrapper_overhead_ratio": "ratio",
}


@dataclass
class Observed:
    """One pass of operations as the caller saw it."""

    wall_s: float = 0.0
    operations: int = 0
    queries: int = 0
    updates: int = 0
    cached: int = 0
    hits_returned: int = 0
    evicted: int = 0
    stats: dict = field(default_factory=dict)
    answers: list = field(default_factory=list)

    def add_answer(self, cached: bool, pairs: list, stats: dict) -> None:
        self.queries += 1
        self.cached += cached
        self.hits_returned += 0 if cached else len(pairs)
        for name, value in stats.items():
            self.stats[name] = self.stats.get(name, 0) + value
        self.answers.append(pairs)


@dataclass
class Layers:
    """What the layer pass of one workload measured."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int


def _in_process_pass(call, ops) -> Observed:
    seen = Observed()
    clock = time.perf_counter
    for op in ops:
        started = clock()
        result = call(op)
        seen.wall_s += clock() - started
        seen.operations += 1
        if _is_query(op):
            seen.add_answer(result.cached, result.pairs(), result.stats)
        else:
            seen.updates += 1
            seen.evicted += result.get("cache_evicted", 0)
    return seen


def _http_pass(client: KeepAliveClient, path: str, bodies, indices) -> Observed:
    seen = Observed()
    clock = time.perf_counter
    for index in indices:
        started = clock()
        status, payload = client.post(path, bodies[index])
        seen.wall_s += clock() - started
        seen.operations += 1
        for result in _answers(path, status, payload):
            if result is None:
                seen.answers.append(None)
            else:
                seen.add_answer(result["cached"], _pairs(result), result["stats"])
    return seen


def _build_and_persist(kspin, settings: Settings) -> dict[str, float]:
    """Set-up layers: a from-nothing build, and the image round trip."""
    _, stages = indeximage.build_from_nothing(settings.setup_dataset)
    stages.pop("dataset_s")
    path = _scratch("image")
    try:
        started = time.perf_counter()
        stages["persist.image_bytes"] = save_kspin(kspin, path)
        stages["persist.save_s"] = time.perf_counter() - started
        started = time.perf_counter()
        load_kspin(path)
        stages["persist.load_s"] = time.perf_counter() - started
    finally:
        if os.path.exists(path):
            os.unlink(path)
    stages["distance.memory_bytes"] = kspin.oracle.memory_bytes()
    stages["core.memory_bytes"] = kspin.memory_bytes()
    return stages


def _layer_metrics(summary: dict, seen: Observed, plain: Observed, extra: dict) -> dict:
    spans = summary["spans"]
    counts = summary["counts"]
    operations = seen.operations
    queries = max(1, seen.queries)

    def self_us(name: str) -> float:
        return spans.get(name, (0, 0, 0))[2] / 1e3 / operations

    def call_us(name: str) -> float:
        calls, inclusive, _ = spans.get(name, (0, 0, 0))
        return inclusive / 1e3 / calls if calls else 0.0

    distances = seen.stats.get("distance_computations", 0)
    heaps = counts.get("label_heaps", 0) + counts.get("fallback_heaps", 0)
    values = {
        "serve.http.self_us": self_us("serve.http"),
        "serve.http.rtt_keepalive_us": 0.0,
        "serve.http.rtt_close_us": 0.0,
        "serve.admission.wait_us": self_us("serve.admission"),
        "api.parse_us": self_us("api.parse"),
        "api.serialise_us": self_us("api.serialise"),
        "serve.engine.self_us": self_us("serve.engine"),
        "serve.cache.lookup_us": self_us("serve.cache.lookup"),
        "serve.cache.hit_ratio": seen.cached / queries,
        "serve.cache.evicted_per_update": seen.evicted / max(1, seen.updates),
        "core.query_processor.self_us": self_us("core.query_processor"),
        "core.query_processor.iterations_per_query": seen.stats.get("iterations", 0) / queries,
        "core.heap_generator.us": self_us("core.heap_generator"),
        "core.heap_generator.insertions_per_query": counts.get("heap_insertions", 0) / queries,
        "lowerbound.alt.us": self_us("lowerbound.alt"),
        "lowerbound.alt.pairs_per_query": counts.get("alt_pairs", 0) / queries,
        "core.label_seeding.us": self_us("core.label_seeding"),
        "core.label_seeding.fallback_ratio": counts.get("fallback_heaps", 0) / max(1, heaps),
        "core.label_seeding.memory_bytes": summary["label_memory_bytes"],
        "distance.p2p_us": call_us("distance"),
        "distance.calls_per_query": distances / queries,
        "distance.useful_ratio": seen.hits_returned / max(1, distances),
        "core.keyword_index.insert_us": call_us("core.keyword_index.insert"),
        "core.keyword_index.delete_us": call_us("core.keyword_index.delete"),
        "core.keyword_index.add_keyword_us": call_us("core.keyword_index.add_keyword"),
        "core.keyword_index.rebuild_us": call_us("core.keyword_index.rebuild"),
        "core.keyword_index.rebuilt_keywords": counts.get("rebuilt_keywords", 0) / operations,
        "core.keyword_index.pending_peak": counts.get("pending_peak", 0),
        "bench.untraced_share": 1.0
        - sum(total[2] for total in spans.values()) / (seen.wall_s * 1e9),
        "bench.wrapper_overhead_ratio": (seen.wall_s / operations)
        / (plain.wall_s / plain.operations),
    }
    for route in ("p2p_phl", "p2p_ch", "batch_labels", "batch_sssp", "knn_labels"):
        values[f"distance.route.{route}"] = summary["route_counts"].get(route, 0) / queries
    values.update(extra)
    return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}


def _differing(seen: Observed, plain: Observed) -> int:
    """Answers the wrapped pass gave that the unwrapped pass did not."""
    return sum(
        mine is None or mine != theirs
        for mine, theirs in zip(seen.answers, plain.answers)
    )


def layer_core(name: str, settings: Settings) -> Layers:
    kspin = load_kspin(settings.image)
    extra = _build_and_persist(kspin, settings)
    engine = _planned(kspin, CORE_PLANS[name])
    block = opstream.unique_queries(kspin.graph, kspin.dataset, settings.seed, BLOCK)
    ops = list(itertools.islice(itertools.cycle(block), settings.count(LAYER_OPS)))
    for query in block:
        engine.execute(query)
    plain = _in_process_pass(engine.execute, ops)
    recorder = SpanRecorder()
    with traced(recorder):
        seen = _in_process_pass(engine.execute, ops)
    summary = recorder.summary()
    return Layers(
        _layer_metrics(summary, seen, plain, extra),
        attempted=2 * len(ops),
        failed=_differing(seen, plain),
    )


def layer_update_mix(settings: Settings) -> Layers:
    kspin = load_kspin(settings.image)
    extra = _build_and_persist(kspin, settings)
    block = _mix_ops(kspin, settings, MIX_BLOCK)

    def one_pass() -> Observed:
        # As in the timed passes: the whole block on a freshly loaded image.
        fresh = load_kspin(settings.image)
        fresh.set_seeding("labels")
        engine = Engine(fresh, cache_size=CACHE_SIZE)
        return _in_process_pass(
            lambda op: engine.execute(op) if _is_query(op) else engine.apply(op), block
        )

    plain = one_pass()
    recorder = SpanRecorder()
    with traced(recorder):
        seen = one_pass()
    return Layers(
        _layer_metrics(recorder.summary(), seen, plain, extra),
        attempted=2 * len(block),
        failed=_differing(seen, plain),
    )


def layer_http(name: str, settings: Settings) -> Layers:
    kspin = load_kspin(settings.image)
    extra = _build_and_persist(kspin, settings)
    reference = Reference(kspin)
    path, groups, bodies = _http_requests(name, kspin, settings)
    schedule = _request_schedules(name, groups, settings)[0]
    indices = list(itertools.islice(schedule, settings.count(LAYER_REQUESTS)))
    warm = len(groups) if name == "http_zipf" else WARMUP_BATCHES
    per_request = len(groups[0])

    with ServerChild(["-m", "repro", *_serve_argv(settings)]) as server:
        failed, _ = _warm_server(server.url, path, bodies, groups, reference, warm)
        client = KeepAliveClient(server.url)
        plain = _http_pass(
            client, path, bodies, indices[: settings.count(RTT_KEEPALIVE_REQUESTS)]
        )
        client.close()
        closing = _http_pass(
            KeepAliveClient(server.url, keep_alive=False),
            path, bodies, indices[: settings.count(RTT_CLOSE_REQUESTS)],
        )
    spans_path = _scratch("spans")
    try:
        launcher = [os.path.join(HERE, "serve_traced.py"), spans_path]
        with ServerChild([*launcher, *_serve_argv(settings)]) as server:
            _warm_server(server.url, path, bodies, groups, reference, warm)
            os.kill(server.process.pid, signal.SIGUSR1)
            server.read_line("RESET")
            client = KeepAliveClient(server.url)
            seen = _http_pass(client, path, bodies, indices)
            client.close()
        with open(spans_path) as handle:
            summary = json.load(handle)
    finally:
        if os.path.exists(spans_path):
            os.unlink(spans_path)
    extra["serve.http.rtt_keepalive_us"] = 1e6 * plain.wall_s / plain.operations
    extra["serve.http.rtt_close_us"] = 1e6 * closing.wall_s / closing.operations
    return Layers(
        _layer_metrics(summary, seen, plain, extra),
        attempted=(warm + len(indices) + plain.operations) * per_request,
        failed=failed + _differing(seen, plain),
    )


def run_layer_pass(name: str, settings: Settings) -> Layers:
    if name in CORE_PLANS:
        return layer_core(name, settings)
    if name in HTTP_WORKLOADS:
        return layer_http(name, settings)
    return layer_update_mix(settings)
