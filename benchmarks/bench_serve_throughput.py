"""Serving throughput: the Table-1 experiment, re-framed as a service.

The paper's Table 1 reports query throughput over a memory-resident
index; this benchmark measures the *served* analogue.  It boots a
``repro.serve`` server over a ladder dataset, replays a Zipf-skewed
workload (popular queries repeat, as real traffic does) through real
HTTP at an increasing client-concurrency ladder, and records a
throughput/latency trajectory to ``benchmarks/results/serve_throughput.json``.

Checked along the way:

* every served response is identical to a single-threaded ``KSpin``
  answer (exactness survives concurrency),
* the result cache earns a non-zero hit rate on the skewed workload,
* nothing is shed or errored at these offered loads.

**Batched ladder** (``results/serve_batched.json``): the same workload
replayed through ``POST /v1/batch`` at batch sizes 1/8/32/128 against a
process cluster of 1/2/4 workers.  Batching amortises the HTTP round
trip, envelope parsing, the engine's lock/cache sweep, and the one-pipe
-message-per-worker cluster dispatch; the gate requires batch-32 to
beat batch-1 on the 2-worker rung (>= 2x on the full run), with batch
results bit-identical to sequential execution.  Run with ``--smoke``
(as CI does) for a fast pass, ``--batched-only`` to skip the
per-query ladder.

This is a pass/fail gate; the repo's performance record is
``BENCHMARK.json`` / ``benchmarks/e2e`` (``http_zipf``,
``http_batch_cold``).
"""

from repro.api import Query
from repro.bench import save_result
from repro.core import KSpin
from repro.datasets import load_dataset, WorkloadGenerator
from repro.distance import ContractionHierarchy
from repro.lowerbound import AltLowerBounder
from repro.serve import (
    ClusterCoordinator,
    Engine,
    QueryServer,
    ServeClient,
    replay,
)

DATASET = "ME-S"
CONCURRENCY_LADDER = [1, 2, 4, 8]
REQUESTS_PER_RUNG = 120
NUM_DISTINCT = 24
NUM_TERMS = 2
K = 10
SERVER_WORKERS = 8

# Batched-vs-unbatched ladder.
BATCH_LADDER = [1, 8, 32, 128]
WORKER_RUNGS = [1, 2, 4]
BATCH_REQUESTS = 128
SMOKE_BATCH_LADDER = [1, 32]
SMOKE_WORKER_RUNGS = [2]
SMOKE_BATCH_REQUESTS = 64


def run_benchmark() -> dict:
    world = load_dataset(DATASET)
    kspin = KSpin(
        world.graph,
        world.keywords,
        oracle=ContractionHierarchy(world.graph),
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=8),
    )
    generator = WorkloadGenerator(world.graph, world.keywords, seed=11)
    queries = generator.zipf_queries(
        NUM_TERMS, REQUESTS_PER_RUNG, num_distinct=NUM_DISTINCT
    )
    # Ground truth from the same (single-threaded) instance, pre-computed
    # so the comparison cannot be satisfied by a stale cache.
    expected = {
        (q.vertex, q.keywords): kspin.execute(Query(q.vertex, q.keywords, k=K)).pairs()
        for q in queries
    }

    engine = Engine(kspin, cache_size=1024)
    rungs = []
    with QueryServer(
        engine, port=0, workers=SERVER_WORKERS, max_queue=256
    ).start_background() as server:
        client = ServeClient(server.url)
        for concurrency in CONCURRENCY_LADDER:
            engine.cache.invalidate_all()  # each rung earns its own hits
            result = replay(client, queries, concurrency, k=K, kind="bknn")
            assert result.errors == 0 and result.shed == 0, result.as_dict()
            rungs.append(result.as_dict())
            print(
                f"  c={concurrency:>2}: {result.qps:8.1f} qps  "
                f"p50={result.p50_ms:6.2f}ms  p95={result.p95_ms:6.2f}ms  "
                f"hits={result.cache_hits}/{result.requests}"
            )
        # Exactness under the highest concurrency: every distinct query
        # answered through the server equals the direct KSpin answer.
        for query in {(q.vertex, q.keywords): q for q in queries}.values():
            served = client.query(
                {"vertex": query.vertex, "k": K, "keywords": list(query.keywords)}
            )
            assert [
                (obj, value) for obj, value in served["results"]
            ] == expected[(query.vertex, query.keywords)], query
        metrics = client.metrics()

    assert any(r["cache_hits"] > 0 for r in rungs), "Zipf replay never hit cache"
    payload = {
        "dataset": DATASET,
        "oracle": "ch",
        "server_workers": SERVER_WORKERS,
        "requests_per_rung": REQUESTS_PER_RUNG,
        "distinct_queries": NUM_DISTINCT,
        "k": K,
        "rungs": rungs,
        "final_metrics": metrics,
    }
    save_result("serve_throughput", payload)
    return payload


def run_batched_benchmark(smoke: bool = False) -> dict:
    """The batched-vs-unbatched ladder over a process cluster."""
    batches = SMOKE_BATCH_LADDER if smoke else BATCH_LADDER
    worker_rungs = SMOKE_WORKER_RUNGS if smoke else WORKER_RUNGS
    requests = SMOKE_BATCH_REQUESTS if smoke else BATCH_REQUESTS

    world = load_dataset(DATASET)
    kspin = KSpin(
        world.graph,
        world.keywords,
        oracle=ContractionHierarchy(world.graph),
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=8),
    )
    generator = WorkloadGenerator(world.graph, world.keywords, seed=11)
    workload = generator.zipf_queries(
        NUM_TERMS, requests, num_distinct=NUM_DISTINCT
    )
    distinct = list({
        (q.vertex, q.keywords): Query(vertex=q.vertex, keywords=q.keywords, k=K)
        for q in workload
    }.values())

    rungs = []
    for num_workers in worker_rungs:
        with ClusterCoordinator(
            kspin, num_workers=num_workers, cache_size=1024,
            health_interval=5.0,
        ) as coordinator:
            # Bit-identical: the batch path must answer exactly what
            # one-at-a-time execution answers, hit for hit.
            batched = coordinator.execute_many(distinct)
            sequential = [coordinator.execute(query) for query in distinct]
            assert [r.hits for r in batched] == [
                r.hits for r in sequential
            ], "batched execution diverged from sequential"

            with QueryServer(
                coordinator, port=0, workers=SERVER_WORKERS, max_queue=256
            ).start_background() as server:
                client = ServeClient(server.url)
                # Warm every distinct query once so each rung measures
                # the *transport* amortisation, not cache luck.
                replay(client, workload, concurrency=4, k=K)
                for batch in batches:
                    result = replay(
                        client, workload, concurrency=4, k=K, batch=batch
                    )
                    assert result.errors == 0 and result.shed == 0, (
                        result.as_dict()
                    )
                    rung = {"workers": num_workers, **result.as_dict()}
                    rungs.append(rung)
                    print(
                        f"  workers={num_workers}  batch={batch:>3}: "
                        f"{result.qps:8.1f} q/s  p50={result.p50_ms:6.2f}ms"
                    )

    def qps(num_workers: int, batch: int) -> float:
        return next(
            r["qps"] for r in rungs
            if r["workers"] == num_workers and r["batch"] == batch
        )

    gate_workers = 2 if 2 in worker_rungs else worker_rungs[0]
    speedup = qps(gate_workers, 32) / qps(gate_workers, 1)
    payload = {
        "dataset": DATASET,
        "oracle": "ch",
        "requests_per_rung": requests,
        "distinct_queries": NUM_DISTINCT,
        "k": K,
        "batch_ladder": batches,
        "worker_rungs": worker_rungs,
        "rungs": rungs,
        "batch32_vs_batch1_speedup": {
            "workers": gate_workers,
            "speedup": speedup,
        },
        "smoke": smoke,
    }
    save_result("serve_batched", payload)
    # The CI gate: batching must pay for itself on the 2-worker rung.
    assert speedup > 1.0, (
        f"batch-32 ({qps(gate_workers, 32):.1f} q/s) does not beat "
        f"batch-1 ({qps(gate_workers, 1):.1f} q/s) at {gate_workers} workers"
    )
    if not smoke:
        assert speedup >= 2.0, f"full ladder requires >= 2x, got {speedup:.2f}x"
    return payload


def test_serve_throughput():
    payload = run_benchmark()
    assert len(payload["rungs"]) == len(CONCURRENCY_LADDER)
    top = payload["rungs"][-1]
    assert top["concurrency"] >= 4 and top["ok"] == top["requests"]
    assert payload["final_metrics"]["cache"]["hit_rate"] > 0


def test_serve_batched():
    payload = run_batched_benchmark(smoke=True)
    assert payload["batch32_vs_batch1_speedup"]["speedup"] > 1.0
    for rung in payload["rungs"]:
        assert rung["ok"] == rung["requests"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast pass with reduced ladders")
    parser.add_argument("--batched-only", action="store_true",
                        help="run only the batched-vs-unbatched ladder")
    args = parser.parse_args()
    if not args.batched_only:
        print(f"Serve throughput over {DATASET} (Zipf-skewed workload)")
        run_benchmark()
        print("wrote benchmarks/results/serve_throughput.json")
    print(f"Batched ladder over {DATASET} (cluster, /v1/batch)")
    result = run_batched_benchmark(smoke=args.smoke)
    print(f"  batch-32 vs batch-1 at "
          f"{result['batch32_vs_batch1_speedup']['workers']} workers: "
          f"{result['batch32_vs_batch1_speedup']['speedup']:.2f}x")
    print("wrote benchmarks/results/serve_batched.json")
