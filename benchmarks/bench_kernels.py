"""CSR kernel speedups: flat-array search primitives vs the python heaps.

The :mod:`repro.kernels` subsystem rewrites the repo's hot search
primitives over a CSR (compressed sparse row) view of the road network
so the inner loops run inside ``scipy.sparse.csgraph`` instead of a
python binary heap.  This benchmark records the speedup rather than
claiming it: every primitive is timed twice through the *same* public
entry points — once under ``REPRO_KERNELS=python`` (the reference
heaps) and once under the CSR backend — so the A/B covers the dispatch
layer the rest of the repo actually uses.

Four micro primitives and one end-to-end reading are recorded to
``benchmarks/results/kernels.json`` (a pass/fail gate; the repo's
performance record is ``BENCHMARK.json`` / ``benchmarks/e2e``):

* ``dijkstra_all`` — full SSSP from distinct sources (the primitive
  behind ALT landmark tables, NVD seeds, and the brute-force oracles);
* ``multi_source`` — the NVD construction search (paper §5);
* ``p2p`` — point-to-point distances with *repeated* sources, the
  query-refinement pattern the workspace's one-slot SSSP memo exists
  for;
* ``alt_build`` — the full ALT landmark table build;
* ``bknn`` — end-to-end disjunctive BkNN p50 on the Figure 10 workload
  (k=10, 2 terms) through K-SPIN with the Dijkstra oracle.

Run directly (``python benchmarks/bench_kernels.py``) for the full
US-S reading the acceptance gates check (>= 3x ``dijkstra_all``,
>= 2x BkNN p50), or with ``--smoke`` (as CI does) for a fast DE-S pass
that still fails if the CSR path is ever *slower* than the python
fallback.  Without scipy the CSR backend cannot exist; the benchmark
then reports that and exits cleanly so the pure-python install stays
green.
"""

import argparse
import math
import os
import random
import statistics
import sys
import time

from repro import kernels
from repro.api import Query
from repro.bench import save_result
from repro.core import KSpin
from repro.datasets import WorkloadGenerator, load_dataset
from repro.distance import DijkstraOracle
from repro.graph.dijkstra import (
    dijkstra_all,
    dijkstra_distance,
    multi_source_dijkstra,
)
from repro.lowerbound import AltLowerBounder

FULL_DATASET = "US-S"
SMOKE_DATASET = "DE-S"

#: Figure 10 workload shape (see bench_fig10_bknn_disjunctive.py).
BKNN_K = 10
BKNN_TERMS = 2
NUM_VECTORS = 6
VERTICES_PER_VECTOR = 3

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


def _time(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _micro_suite(graph, smoke: bool) -> dict:
    """Time each primitive once per backend through the dispatch layer."""
    rng = random.Random(2024)
    n = graph.num_vertices
    sources = [rng.randrange(n) for _ in range(4 if smoke else 12)]
    generators = sorted(rng.sample(range(n), 8 if smoke else 48))
    pairs = [(sources[0], rng.randrange(n)) for _ in range(16)]
    landmarks = 4 if smoke else 8
    repeats = 2 if smoke else 3

    def run_dijkstra_all():
        for source in sources:
            dijkstra_all(graph, source)

    def run_multi_source():
        multi_source_dijkstra(graph, generators)

    def run_p2p():
        # Repeated source: the refinement pattern the SSSP memo serves.
        for source, target in pairs:
            dijkstra_distance(graph, source, target)

    def run_alt_build():
        AltLowerBounder(graph, num_landmarks=landmarks)

    cases = {
        "dijkstra_all": run_dijkstra_all,
        "multi_source": run_multi_source,
        "p2p": run_p2p,
        "alt_build": run_alt_build,
    }
    timings: dict[str, dict] = {}
    for name, fn in cases.items():
        with kernels.use_backend("python"):
            python_s = _time(fn, repeats)
        with kernels.use_backend("csr"):
            csr_s = _time(fn, repeats)
        timings[name] = {
            "python_ms": python_s * 1000.0,
            "csr_ms": csr_s * 1000.0,
            "speedup": python_s / csr_s if csr_s > 0 else math.inf,
        }
        print(f"  {name:<14} python {python_s * 1000.0:9.2f}ms   "
              f"csr {csr_s * 1000.0:9.2f}ms   "
              f"{timings[name]['speedup']:5.2f}x")
    return timings


def _bknn_suite(world, smoke: bool) -> dict:
    """End-to-end Figure 10 BkNN latency per backend.

    The engine is built once (index contents are backend-independent);
    only query execution is A/B'd, which is where the kernels dispatch.
    """
    kspin = KSpin(
        world.graph,
        world.keywords,
        oracle=DijkstraOracle(world.graph),
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
    )
    generator = WorkloadGenerator(world.graph, world.keywords, seed=101)
    workload = generator.queries(BKNN_TERMS, NUM_VECTORS, VERTICES_PER_VECTOR)
    queries = [
        Query(vertex=item.vertex, keywords=item.keywords, k=BKNN_K)
        for item in workload
    ]
    if smoke:
        queries = queries[: max(6, len(queries) // 3)]

    readings = {}
    expected = None
    for backend in ("python", "csr"):
        with kernels.use_backend(backend):
            answers = [kspin.execute(q).pairs() for q in queries]  # warm
            samples = []
            for query in queries:
                start = time.perf_counter()
                kspin.execute(query)
                samples.append(time.perf_counter() - start)
        if expected is None:
            expected = answers
        else:
            assert answers == expected, "backends disagree on BkNN results"
        samples.sort()
        readings[backend] = {
            "queries": len(queries),
            "p50_ms": statistics.median(samples) * 1000.0,
            "mean_ms": statistics.fmean(samples) * 1000.0,
        }
    speedup = readings["python"]["p50_ms"] / readings["csr"]["p50_ms"]
    print(f"  bknn p50       python {readings['python']['p50_ms']:9.2f}ms   "
          f"csr {readings['csr']['p50_ms']:9.2f}ms   {speedup:5.2f}x")
    return {"per_backend": readings, "speedup_p50": speedup}


def run_benchmark(smoke: bool = False) -> dict:
    if not kernels.scipy_available():
        payload = {"skipped": "scipy unavailable; CSR backend cannot exist"}
        save_result("kernels", payload)
        print("scipy unavailable -- CSR backend cannot exist; skipping")
        return payload
    dataset_name = SMOKE_DATASET if smoke else FULL_DATASET
    world = load_dataset(dataset_name)
    csr = world.graph.csr()
    print(f"  graph: {csr.num_vertices} vertices, {csr.num_arcs} arcs, "
          f"CSR {csr.memory_bytes() / 1024.0:.0f} KiB")
    micro = _micro_suite(world.graph, smoke)
    bknn = _bknn_suite(world, smoke)
    payload = {
        "dataset": dataset_name,
        "smoke": smoke,
        "host": _host_info(),
        "csr": {
            "num_vertices": csr.num_vertices,
            "num_arcs": csr.num_arcs,
            "memory_bytes": csr.memory_bytes(),
        },
        "micro": micro,
        "bknn": bknn,
        "gates": {
            "dijkstra_all_speedup": micro["dijkstra_all"]["speedup"],
            "bknn_p50_speedup": bknn["speedup_p50"],
            "target_dijkstra_all": 3.0,
            "target_bknn_p50": 2.0,
        },
    }
    save_result("kernels", payload)
    return payload


def test_kernels_smoke():
    payload = run_benchmark(smoke=True)
    if "skipped" in payload:
        return  # pure-python install: nothing to compare
    # CI gate: the CSR path must never be slower than the python
    # fallback, even on the smoke graph.  The 3x / 2x acceptance
    # targets are asserted on the full US-S run (__main__ below);
    # smoke keeps a conservative floor so jitter cannot flake CI.
    gates = payload["gates"]
    assert gates["dijkstra_all_speedup"] >= 1.0, gates
    assert gates["bknn_p50_speedup"] >= 1.0, gates


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast DE-S pass with reduced query counts")
    args = parser.parse_args()
    name = SMOKE_DATASET if args.smoke else FULL_DATASET
    print(f"CSR kernels vs python heaps over {name}")
    result = run_benchmark(smoke=args.smoke)
    if "skipped" not in result:
        gates = result["gates"]
        print(f"  dijkstra_all speedup: {gates['dijkstra_all_speedup']:.2f}x "
              f"(target >= {gates['target_dijkstra_all']:.0f}x)")
        print(f"  bknn p50 speedup:     {gates['bknn_p50_speedup']:.2f}x "
              f"(target >= {gates['target_bknn_p50']:.0f}x)")
        if args.smoke:
            # CI regression floor: CSR must never lose to the fallback.
            assert gates["dijkstra_all_speedup"] >= 1.0, gates
            assert gates["bknn_p50_speedup"] >= 1.0, gates
        else:
            assert gates["dijkstra_all_speedup"] >= gates["target_dijkstra_all"]
            assert gates["bknn_p50_speedup"] >= gates["target_bknn_p50"]
        print("wrote benchmarks/results/kernels.json")
