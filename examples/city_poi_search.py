#!/usr/bin/env python3
"""City-scale POI search: the paper's motivating local-search workload.

Builds a city-sized synthetic road network with a Zipfian POI corpus,
then serves a stream of correlated local-search queries ("find the
nearest thai restaurant", "best-rated hotels near me") through K-SPIN,
reporting throughput and per-query costs — the scenario behind the
paper's "2500 spatial keyword queries per second" motivation.

Run:  python examples/city_poi_search.py
"""

import time

from repro.api import Query
from repro.bench import megabytes
from repro.core import KSpin
from repro.datasets import WorkloadGenerator, load_dataset
from repro.distance import ContractionHierarchy, HubLabeling
from repro.lowerbound import AltLowerBounder


def main() -> None:
    print("Loading the FL-S city dataset (synthetic Florida analogue)...")
    dataset = load_dataset("FL-S")
    graph, keywords = dataset.graph, dataset.keywords
    stats = dataset.statistics()
    print("  " + ", ".join(f"{k}={v}" for k, v in stats.items()))

    print("Building indexes (ALT landmarks, CH, hub labels, APX-NVDs)...")
    start = time.perf_counter()
    alt = AltLowerBounder(graph, num_landmarks=16)
    ch = ContractionHierarchy(graph)
    importance = sorted(graph.vertices(), key=lambda v: -ch.rank[v])
    hub = HubLabeling(graph, order=importance)
    ks_ch = KSpin(graph, keywords, oracle=ch, lower_bounder=alt)
    print(f"  built in {time.perf_counter() - start:.1f}s; K-SPIN core index "
          f"{megabytes(ks_ch.memory_bytes()):.2f} MB "
          f"(+ CH {megabytes(ch.memory_bytes()):.2f} MB, "
          f"hub labels {megabytes(hub.memory_bytes()):.2f} MB)")
    small = 1 - ks_ch.index.indexed_fraction()
    print(f"  Observation 1 in action: {small:.0%} of keywords were cheap "
          f"enough (<= rho objects) to skip NVD construction entirely")

    generator = WorkloadGenerator(graph, keywords, seed=7)
    workload = generator.queries(num_terms=2, num_vectors=10, vertices_per_vector=10)
    print(f"\nServing {len(workload)} correlated local-search queries "
          f"(2 keywords each, k=10)...")

    for label, kspin in (("KS-CH", ks_ch),):
        for query_kind, kind, mode in (
            ("top-k", "topk", "or"),
            ("BkNN-disjunctive", "bknn", "or"),
            ("BkNN-conjunctive", "bknn", "and"),
        ):
            start = time.perf_counter()
            answered = 0
            distance_computations = 0
            for query in workload:
                kspin.execute(
                    Query(query.vertex, query.keywords, k=10, kind=kind, mode=mode)
                )
                distance_computations += kspin.last_stats.distance_computations
                answered += 1
            elapsed = time.perf_counter() - start
            print(f"  {label} {query_kind:18s}: "
                  f"{answered / elapsed:8.0f} queries/s, "
                  f"{1000 * elapsed / answered:6.2f} ms/query, "
                  f"{distance_computations / answered:5.1f} exact distances/query")

    # A taste of the result quality: one concrete query.
    query = workload[0]
    results = ks_ch.execute(Query(query.vertex, query.keywords, k=3, kind="topk")).pairs()
    print(f"\nSample query from vertex {query.vertex} for {list(query.keywords)}:")
    for rank, (obj, score) in enumerate(results, start=1):
        doc = sorted(keywords.document(obj))
        print(f"  #{rank}: vertex {obj} (score {score:.3f}) doc={doc[:5]}")


if __name__ == "__main__":
    main()
