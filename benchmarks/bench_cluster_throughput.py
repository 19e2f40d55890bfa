"""Cluster scaling ladder: process workers vs the GIL-bound thread engine.

The experiment the process-sharded cluster exists for: a CPU-bound
Zipf-skewed BkNN workload (Dijkstra oracle — every exact distance burns
CPU; caches disabled so every request computes) is driven through

* the thread-based :class:`Engine` at 4 client threads (the GIL keeps
  this at ~1 core of useful work regardless of thread count), and
* the :class:`ClusterCoordinator` at a 1 / 2 / 4-worker ladder.

Two scaling readings are recorded to
``benchmarks/results/cluster_throughput.json``:

* ``measured`` — wall-clock throughput on *this* host.  On a multi-core
  host the 4-worker rung must clear 2x the thread engine; on a 1-core
  CI container real process parallelism is physically impossible, so
  the measured ladder is reported but not asserted against.
* ``modeled`` — the deterministic multicore projection this repo
  already uses for parallel index construction (Figure 6(d)'s
  LPT-makespan model, :func:`simulated_parallel_makespan`): take the
  *measured* per-query service times and the *measured* per-request
  IPC overhead, schedule the same workload over ``w`` cores, and
  report the implied throughput.  This is arithmetic over measured
  inputs — reproducible on any host — and is what the >= 2x acceptance
  gate checks everywhere.

Run directly (``python benchmarks/bench_cluster_throughput.py``) for
the full ladder, or with ``--smoke`` (as CI does) for a fast pass that
still exercises every rung end to end.
"""

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api import Query
from repro.bench import save_result
from repro.core import KSpin
from repro.datasets import WorkloadGenerator, load_dataset
from repro.distance import DijkstraOracle
from repro.lowerbound import AltLowerBounder
from repro.nvd.builder import simulated_parallel_makespan
from repro.serve import ClusterCoordinator, Engine

DATASET = "DE-S"
WORKER_LADDER = [1, 2, 4]
CLIENT_THREADS = 4
REQUESTS = 200
SMOKE_REQUESTS = 48
NUM_DISTINCT = 24
NUM_TERMS = 3
K = 20


def _host_info() -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count() or 1,
        "usable_cores": affinity,
        "platform": sys.platform,
        "python": sys.version.split()[0],
    }


def _drive(execute, queries: list[Query], threads: int) -> dict:
    """Fire ``queries`` at ``execute`` from ``threads`` client threads."""
    durations: list[float] = []

    def fire(query: Query) -> float:
        start = time.perf_counter()
        execute(query)
        return time.perf_counter() - start

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        durations = list(pool.map(fire, queries))
    elapsed = time.perf_counter() - start
    durations.sort()
    return {
        "requests": len(queries),
        "elapsed_seconds": elapsed,
        "qps": len(queries) / elapsed if elapsed > 0 else 0.0,
        "mean_ms": sum(durations) / len(durations) * 1000.0,
        "p95_ms": durations[int(0.95 * (len(durations) - 1))] * 1000.0,
    }


def _service_times(engine: Engine, queries: list[Query]) -> list[float]:
    """Single-threaded per-query compute times (the model's task list)."""
    times = []
    for query in queries:
        start = time.perf_counter()
        engine.execute(query)
        times.append(time.perf_counter() - start)
    return times


def run_benchmark(smoke: bool = False) -> dict:
    requests = SMOKE_REQUESTS if smoke else REQUESTS
    world = load_dataset(DATASET)
    kspin = KSpin(
        world.graph,
        world.keywords,
        # Dijkstra: every exact distance is a real graph search, so the
        # workload is CPU-bound and the GIL is the thread engine's wall.
        oracle=DijkstraOracle(world.graph),
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
    )
    generator = WorkloadGenerator(world.graph, world.keywords, seed=11)
    workload = generator.zipf_queries(
        NUM_TERMS, requests, num_distinct=NUM_DISTINCT
    )
    queries = [
        Query(vertex=item.vertex, keywords=item.keywords, k=K)
        for item in workload
    ]

    # -- ground truth + per-query service times (single thread, no cache)
    solo = Engine(kspin, cache_size=0)
    expected = {
        (q.vertex, q.keywords): solo.execute(q).pairs()
        for q in {(q.vertex, q.keywords): q for q in queries}.values()
    }
    service = _service_times(solo, queries)
    serial_seconds = sum(service)

    # -- thread engine baseline (GIL-bound)
    thread_engine = Engine(kspin, cache_size=0)
    baseline = _drive(thread_engine.execute, queries, CLIENT_THREADS)
    print(f"  threads x{CLIENT_THREADS}: {baseline['qps']:8.1f} qps "
          f"(GIL-bound baseline)")

    # -- cluster ladder
    measured = []
    ipc = 0.0
    for workers in WORKER_LADDER:
        with ClusterCoordinator(
            kspin, num_workers=workers, cache_size=0, health_interval=5.0,
        ) as cluster:
            if workers == 1:
                # Per-request pipe+pickle cost, measured without any
                # queueing: sequential round trips through the single
                # worker vs the same queries' pure compute times.  A
                # concurrent drive would fold queueing delay (clients
                # waiting on the busy pipe) into the estimate and
                # wildly overstate IPC.
                calib = queries[: min(32, len(queries))]
                for query in calib[:4]:  # warm the pipe
                    cluster.execute(query)
                start = time.perf_counter()
                for query in calib:
                    cluster.execute(query)
                roundtrip = (time.perf_counter() - start) / len(calib)
                compute = sum(service[: len(calib)]) / len(calib)
                ipc = max(0.0, roundtrip - compute)
            rung = _drive(cluster.execute, queries, CLIENT_THREADS)
            sample = cluster.execute(queries[0])
            assert sample.pairs() == expected[
                (queries[0].vertex, queries[0].keywords)
            ]
        rung["workers"] = workers
        measured.append(rung)
        print(f"  cluster x{workers}: {rung['qps']:8.1f} qps  "
              f"p95={rung['p95_ms']:6.2f}ms")

    # -- deterministic multicore projection (Figure 6(d) precedent)
    per_task = [t + ipc for t in service]
    modeled = []
    for workers in WORKER_LADDER:
        makespan = simulated_parallel_makespan(per_task, workers)
        modeled.append(
            {
                "workers": workers,
                "qps": len(queries) / makespan if makespan > 0 else 0.0,
                "makespan_seconds": makespan,
            }
        )
    # The thread engine's model is serial compute (GIL): 1 core, no IPC.
    modeled_baseline = {"qps": len(queries) / serial_seconds}

    host = _host_info()
    speedup_measured = measured[-1]["qps"] / baseline["qps"]
    speedup_modeled = modeled[-1]["qps"] / modeled_baseline["qps"]
    payload = {
        "dataset": DATASET,
        "oracle": "dijkstra",
        "cache": "disabled",
        "workload": {
            "kind": "bknn",
            "zipf_distinct": NUM_DISTINCT,
            "requests": requests,
            "k": K,
            "client_threads": CLIENT_THREADS,
        },
        "host": host,
        "thread_engine": {"measured": baseline, "modeled": modeled_baseline},
        "cluster": {"measured": measured, "modeled": modeled},
        "ipc_overhead_ms": ipc * 1000.0,
        "speedup_at_4_workers": {
            "measured": speedup_measured,
            "modeled": speedup_modeled,
        },
        "smoke": smoke,
    }
    save_result("cluster_throughput", payload)
    return payload


def test_cluster_throughput():
    payload = run_benchmark(smoke=True)
    assert [r["workers"] for r in payload["cluster"]["measured"]] == WORKER_LADDER
    assert [r["workers"] for r in payload["cluster"]["modeled"]] == WORKER_LADDER
    # The acceptance gate: 4 process workers clear 2x the GIL-bound
    # thread engine.  The modeled projection (measured service times
    # scheduled over 4 cores) holds on any host; the measured ladder is
    # additionally asserted when this host really has >= 4 cores.
    assert payload["speedup_at_4_workers"]["modeled"] >= 2.0, payload[
        "speedup_at_4_workers"
    ]
    if payload["host"]["usable_cores"] >= 4:
        assert payload["speedup_at_4_workers"]["measured"] >= 2.0, payload[
            "speedup_at_4_workers"
        ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast pass with a reduced request count")
    args = parser.parse_args()
    print(f"Cluster scaling over {DATASET} "
          f"(Zipf workload, caches disabled, Dijkstra oracle)")
    result = run_benchmark(smoke=args.smoke)
    print(f"  modeled speedup at 4 workers: "
          f"{result['speedup_at_4_workers']['modeled']:.2f}x")
    print(f"  measured speedup at 4 workers: "
          f"{result['speedup_at_4_workers']['measured']:.2f}x "
          f"({result['host']['usable_cores']} usable cores)")
    print("wrote benchmarks/results/cluster_throughput.json")
