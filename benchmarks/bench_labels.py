"""Hub-label serving A/B ladder: PLL p2p, label kNN seeding, composite.

Three questions, each answered by timing the *same public entry points*
under interchangeable exact backends (so every comparison is
result-identical by construction, and asserted to be):

* **p2p** — is the array-backed PLL merge faster than a CSR Dijkstra
  point-to-point on random pairs?  (It must never be slower: that is
  the smoke gate; labels exist purely to buy query speed with memory.)
* **BkNN seeding** — does label-backed heap seeding
  (``KSpin(seeding="labels")``, one exact flat scan over each query
  keyword's label rows) beat the paper's NVD+ALT lazy expansion on BkNN
  p50?  Both sides read the same labels, so the answers are
  bit-identical; only candidate generation differs.
* **composite routing** — per query class (p2p, pairwise batch, kNN),
  does :class:`~repro.distance.CompositeOracle` stay within 10% of the
  measured per-class winner?  A composite that picks a strictly
  dominated backend fails the gate.

The memory satellite is reported alongside: the flat-array label layout
vs what the former dict-of-dicts layout charged for the same labels.

Results land in ``benchmarks/results/labels.json``; this is a pass/fail
gate, the repo's performance record is ``BENCHMARK.json`` /
``benchmarks/e2e``.

Run directly for the full US-S reading the acceptance gates check
(label seeding beats NVD+ALT on BkNN p50; composite within 10% of each
class winner), or with ``--smoke`` (as CI does) for a fast DE-S pass
gating only "PHL p2p not slower than CSR Dijkstra p2p" and "composite
not strictly dominated".
"""

import argparse
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
from repro.distance import (
    CompositeOracle,
    ContractionHierarchy,
    DijkstraOracle,
    HubLabeling,
)
from repro.lowerbound import AltLowerBounder

FULL_DATASET = "US-S"
SMOKE_DATASET = "DE-S"

#: Figure 10 workload shape.
BKNN_K = 10
BKNN_TERMS = 2
NUM_VECTORS = 6
VERTICES_PER_VECTOR = 3

#: A composite pick is "dominated" when it runs this much slower than
#: the measured per-class winner (the acceptance criterion's 10%,
#: asserted on the full US-S run).  The smoke rung's per-class medians
#: are sub-millisecond on DE-S, where the composite's fixed routing
#: overhead plus shared-CI-core jitter is a visible fraction of the
#: reading — so smoke uses a looser slack that still catches a
#: mis-routed class (those show up as 3-500x, not 1.2x).
DOMINANCE_SLACK = 1.10
SMOKE_DOMINANCE_SLACK = 1.50

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


def _max_deviation(answers, reference) -> float:
    """Worst relative disagreement; equal infinities count as exact."""
    worst = 0.0
    for a, b in zip(answers, reference):
        if a == b:  # covers inf == inf (disconnected pairs)
            continue
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst


def _knn_agree(answers, reference) -> bool:
    """Same kNN answer up to reordering of last-ulp distance ties.

    Different exact backends associate float additions differently, so
    two candidates one ulp apart may swap ranks; any position where the
    objects differ must still carry (near-)identical distances.
    """
    for row_a, row_b in zip(answers, reference):
        if len(row_a) != len(row_b):
            return False
        for (obj_a, d_a), (obj_b, d_b) in zip(row_a, row_b):
            if obj_a != obj_b and abs(d_a - d_b) > 1e-9 * max(1.0, abs(d_b)):
                return False
    return True


def _time(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _build_backends(graph) -> dict:
    """One shared build: the composite's CH doubles as the PLL order."""
    composite = CompositeOracle(graph)
    return {
        "dijkstra": DijkstraOracle(graph),
        "ch": composite.ch,
        "phl": composite.labeling,
        "composite": composite,
    }


def _p2p_suite(graph, backends: dict, smoke: bool) -> dict:
    """Random-pair point-to-point latency per backend, one entry point."""
    rng = random.Random(31)
    n = graph.num_vertices
    pairs = [
        (rng.randrange(n), rng.randrange(n))
        for _ in range(24 if smoke else 64)
    ]
    repeats = 3
    timings: dict[str, float] = {}
    reference = None
    for name, oracle in backends.items():
        answers = [oracle.distance(s, t) for s, t in pairs]  # warm + check
        if reference is None:
            reference = answers
        else:
            deviation = _max_deviation(answers, reference)
            assert deviation < 1e-9, f"{name} disagrees on p2p distances"

        def run(oracle=oracle):
            for s, t in pairs:
                oracle.distance(s, t)

        timings[name] = _time(run, repeats)
        print(f"  p2p {name:<10} {timings[name] * 1000.0:9.3f}ms "
              f"({len(pairs)} pairs)")
    return {name: seconds * 1000.0 for name, seconds in timings.items()}


def _batch_suite(graph, backends: dict, smoke: bool) -> dict:
    """Pairwise-batch latency per backend through ``distances_many``."""
    rng = random.Random(47)
    n = graph.num_vertices
    # The serving shape: few distinct sources, many targets each.
    sources = [rng.randrange(n) for _ in range(2 if smoke else 4)]
    width = 48 if smoke else 256
    flat_sources = [s for s in sources for _ in range(width)]
    flat_targets = [rng.randrange(n) for _ in flat_sources]
    repeats = 3
    timings: dict[str, float] = {}
    reference = None
    for name, oracle in backends.items():
        answers = oracle.distances_many(flat_sources, flat_targets)
        if reference is None:
            reference = answers
        else:
            deviation = _max_deviation(answers, reference)
            assert deviation < 1e-9, f"{name} disagrees on batch distances"
        timings[name] = _time(
            lambda oracle=oracle: oracle.distances_many(
                flat_sources, flat_targets
            ),
            repeats,
        )
        print(f"  batch {name:<10} {timings[name] * 1000.0:9.3f}ms "
              f"({len(flat_sources)} pairs)")
    return {name: seconds * 1000.0 for name, seconds in timings.items()}


def _knn_suite(graph, backends: dict, smoke: bool) -> dict:
    """Batched kNN-of-candidates latency through ``knn_many``."""
    rng = random.Random(59)
    n = graph.num_vertices
    sources = [rng.randrange(n) for _ in range(4 if smoke else 12)]
    candidates = sorted(rng.sample(range(n), min(n, 32 if smoke else 128)))
    repeats = 3
    timings: dict[str, float] = {}
    reference = None
    for name, oracle in backends.items():
        answers = oracle.knn_many(sources, candidates, BKNN_K)
        if reference is None:
            reference = answers
        else:
            assert _knn_agree(answers, reference), (
                f"{name} disagrees on kNN candidates"
            )
        timings[name] = _time(
            lambda oracle=oracle: oracle.knn_many(
                sources, candidates, BKNN_K
            ),
            repeats,
        )
        print(f"  knn {name:<10} {timings[name] * 1000.0:9.3f}ms "
              f"({len(sources)}x{len(candidates)})")
    return {name: seconds * 1000.0 for name, seconds in timings.items()}


def _seeding_suite(world, smoke: bool) -> dict:
    """End-to-end BkNN p50: NVD+ALT seeding vs label seeding.

    Both frameworks share one composite oracle: NVD+ALT refines with
    its p2p label merge, label seeding reads the same sums off its scan,
    so the answers must be — and are asserted — bit-identical.
    """
    oracle = CompositeOracle(world.graph)
    alt = AltLowerBounder(world.graph, num_landmarks=4)
    variants = {
        "nvd_alt": KSpin(
            world.graph, world.keywords, oracle=oracle,
            lower_bounder=alt, seeding="nvd",
        ),
        "labels": KSpin(
            world.graph, world.keywords, oracle=oracle,
            lower_bounder=alt, seeding="labels",
        ),
    }
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
    for name, kspin in variants.items():
        answers = [kspin.execute(q).pairs() for q in queries]  # warm
        if expected is None:
            expected = answers
        else:
            assert answers == expected, "seeding backends disagree on BkNN"
        samples = []
        for query in queries:
            start = time.perf_counter()
            kspin.execute(query)
            samples.append(time.perf_counter() - start)
        samples.sort()
        readings[name] = {
            "queries": len(queries),
            "p50_ms": statistics.median(samples) * 1000.0,
            "mean_ms": statistics.fmean(samples) * 1000.0,
        }
    speedup = readings["nvd_alt"]["p50_ms"] / readings["labels"]["p50_ms"]
    print(f"  bknn p50       nvd+alt {readings['nvd_alt']['p50_ms']:9.3f}ms   "
          f"labels {readings['labels']['p50_ms']:9.3f}ms   {speedup:5.2f}x")
    gen = variants["labels"].heap_generator
    return {
        "per_backend": readings,
        "speedup_p50": speedup,
        "label_heaps": gen.label_heaps,
        "object_label_bytes": gen.label_memory_bytes(),
    }


def _memory_report(labeling: HubLabeling) -> dict:
    """The memory satellite: label counts and the real array bytes."""
    return {
        "label_entries": labeling.num_label_entries(),
        "average_label_size": labeling.average_label_size(),
        "array_bytes": labeling.memory_bytes(),
    }


def _composite_verdict(
    suites: dict[str, dict], composite: CompositeOracle, slack: float
) -> dict:
    """Per query class: the winner, the composite, and the dominance call."""
    verdict = {}
    for klass, timings in suites.items():
        contenders = {
            name: ms for name, ms in timings.items() if name != "composite"
        }
        winner = min(contenders, key=lambda name: (contenders[name], name))
        composite_ms = timings["composite"]
        verdict[klass] = {
            "winner": winner,
            "winner_ms": contenders[winner],
            "composite_ms": composite_ms,
            "ratio": composite_ms / contenders[winner],
            "dominated": composite_ms > contenders[winner] * slack,
        }
    verdict["route_counts"] = dict(composite.route_counts)
    return verdict


def run_benchmark(smoke: bool = False) -> dict:
    dataset_name = SMOKE_DATASET if smoke else FULL_DATASET
    world = load_dataset(dataset_name)
    graph = world.graph
    kernels.warm(graph)
    print(f"  graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    backends = _build_backends(graph)
    composite = backends["composite"]
    suites = {
        "p2p": _p2p_suite(graph, backends, smoke),
        "batch": _batch_suite(graph, backends, smoke),
        "knn": _knn_suite(graph, backends, smoke),
    }
    seeding = _seeding_suite(world, smoke)
    memory = _memory_report(backends["phl"])
    verdict = _composite_verdict(
        suites,
        composite,
        SMOKE_DOMINANCE_SLACK if smoke else DOMINANCE_SLACK,
    )
    dominated = [
        klass
        for klass, row in verdict.items()
        if isinstance(row, dict) and row.get("dominated")
    ]
    payload = {
        "dataset": dataset_name,
        "smoke": smoke,
        "host": _host_info(),
        "classes_ms": suites,
        "seeding": seeding,
        "memory": memory,
        "composite": verdict,
        "gates": {
            "phl_vs_dijkstra_p2p": suites["p2p"]["dijkstra"]
            / suites["p2p"]["phl"],
            "seeding_speedup_p50": seeding["speedup_p50"],
            "dominated_classes": dominated,
            "target_seeding_speedup": 1.0,
        },
    }
    save_result("labels", payload)
    return payload


def test_labels_smoke():
    payload = run_benchmark(smoke=True)
    gates = payload["gates"]
    # CI floor 1: the labels exist to buy p2p speed — PHL must never be
    # slower than a CSR Dijkstra point-to-point.
    assert gates["phl_vs_dijkstra_p2p"] >= 1.0, gates
    # CI floor 2: the composite must never pick a strictly-dominated
    # backend for any measured query class.
    assert not gates["dominated_classes"], payload["composite"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast DE-S pass with reduced query counts")
    args = parser.parse_args()
    name = SMOKE_DATASET if args.smoke else FULL_DATASET
    print(f"Hub-label serving ladder over {name}")
    result = run_benchmark(smoke=args.smoke)
    gates = result["gates"]
    print(f"  PHL vs CSR-Dijkstra p2p: {gates['phl_vs_dijkstra_p2p']:.2f}x "
          "(must be >= 1)")
    print(f"  label seeding BkNN p50:  {gates['seeding_speedup_p50']:.2f}x "
          "vs NVD+ALT (full-run target > 1)")
    print(f"  memory: {result['memory']['array_bytes']} B label arrays")
    assert gates["phl_vs_dijkstra_p2p"] >= 1.0, gates
    assert not gates["dominated_classes"], result["composite"]
    if not args.smoke:
        # Acceptance: label seeding beats NVD+ALT on BkNN p50 (US-S).
        assert gates["seeding_speedup_p50"] > 1.0, gates
    print("wrote benchmarks/results/labels.json")
