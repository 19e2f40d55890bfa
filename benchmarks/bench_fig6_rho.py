"""Figure 6: ρ-approximate NVD performance (paper §6.1).

Four panels on the Florida-analogue dataset:

* **6(a)** index size (bars) and construction time (line) for ρ = 1..11
  — shape: size collapses as ρ grows (18x at ρ = 5 in the paper) and
  construction time drops;
* **6(b)** query time vs ρ — shape: flat (the ≤ ρ-1 extra seed
  candidates would normally be evaluated anyway);
* **6(c)** quadtree vs R-tree container size across the dataset ladder
  — shape: both linear in keyword occurrences, comparable magnitude;
* **6(d)** parallel construction speedup — shape: near-linear scaling
  with efficiency staying high (Observation 3).

Plus the ALT landmark-count ablation called out in DESIGN.md §7.
"""

import time

from repro.api import Query
from repro.bench import megabytes, print_table, save_result, time_queries
from repro.core import KSpin
from repro.datasets import DATASET_ORDER, WorkloadGenerator
from repro.bench import get_dataset
from repro.lowerbound import AltLowerBounder
from repro.nvd import (
    ApproximateNVD,
    NetworkVoronoiDiagram,
    build_keyword_nvds,
    parallel_efficiency,
    simulated_parallel_makespan,
)

from voronoi_rtree import VoronoiRTree, bounding_rect

RHO_VALUES = [1, 3, 5, 7, 9, 11]
DEFAULT_K = 10
DEFAULT_TERMS = 2


def test_fig6a_rho_size_and_time(rho_dataset, benchmark):
    graph, keywords = rho_dataset.graph, rho_dataset.keywords
    series = {}
    rows = []
    for rho in RHO_VALUES:
        start = time.perf_counter()
        index = build_keyword_nvds(graph, keywords, rho=rho)
        elapsed = time.perf_counter() - start
        size = sum(nvd.memory_bytes() for nvd in index.values())
        skipped = sum(1 for nvd in index.values() if nvd.is_small)
        series[str(rho)] = {
            "size_mb": megabytes(size),
            "build_seconds": elapsed,
            "keywords_skipped": skipped,
        }
        rows.append(
            [rho, f"{megabytes(size):.3f}", f"{elapsed:.2f}",
             f"{skipped}/{len(index)}"]
        )
    print_table(
        f"Fig 6(a) — APX-NVD index size and build time vs rho "
        f"({rho_dataset.name})",
        ["rho", "size (MB)", "build (s)", "keywords skipped"],
        rows,
    )
    save_result("fig6a_rho_size_time", series)

    # Shape: size shrinks substantially from exact (rho=1) to rho=5,
    # and the rho=5 point skips the Zipf long tail entirely.
    assert series["5"]["size_mb"] < 0.5 * series["1"]["size_mb"]
    assert series["11"]["size_mb"] <= series["1"]["size_mb"]
    assert series["5"]["keywords_skipped"] > 0
    assert series["5"]["build_seconds"] <= series["1"]["build_seconds"] * 1.5

    benchmark.pedantic(
        lambda: build_keyword_nvds(graph, keywords, rho=5),
        rounds=2,
        iterations=1,
    )


def test_fig6b_query_time_flat_in_rho(rho_dataset, benchmark):
    graph, keywords = rho_dataset.graph, rho_dataset.keywords
    from repro.distance import ContractionHierarchy

    alt = AltLowerBounder(graph, num_landmarks=16)
    ch = ContractionHierarchy(graph)
    generator = WorkloadGenerator(graph, keywords, seed=61)
    workload = generator.queries(DEFAULT_TERMS, 5, 4)

    series = {}
    for rho in RHO_VALUES:
        kspin = KSpin(graph, keywords, oracle=ch, lower_bounder=alt, rho=rho)
        summary = time_queries(
            [
                (lambda q=q, ks=kspin: ks.execute(Query(q.vertex, q.keywords, k=DEFAULT_K)))
                for q in workload
            ]
        )
        series[str(rho)] = summary.mean_milliseconds
    print_table(
        f"Fig 6(b) — B10NN query time (ms) vs rho ({rho_dataset.name}, terms=2)",
        ["rho", "mean ms/query"],
        [[rho, f"{series[str(rho)]:.3f}"] for rho in RHO_VALUES],
    )
    save_result("fig6b_query_time_vs_rho", series)

    # Shape: flat — no rho point more than ~2.5x the fastest (the paper
    # shows visually indistinguishable bars).
    fastest = min(series.values())
    assert max(series.values()) < 2.5 * fastest + 0.5

    kspin = KSpin(graph, keywords, oracle=ch, lower_bounder=alt, rho=5)
    query = workload[0]
    timed = Query(query.vertex, query.keywords, k=DEFAULT_K)
    benchmark.pedantic(
        lambda: kspin.execute(timed),
        rounds=5,
        iterations=1,
    )


def test_fig6c_quadtree_vs_rtree_sizes(benchmark):
    series = {}
    rows = []
    for name in DATASET_ORDER:
        dataset = get_dataset(name)
        graph, keywords = dataset.graph, dataset.keywords
        quadtree_bytes = 0
        rtree_bytes = 0
        occurrences = keywords.num_occurrences
        for keyword in keywords.keywords():
            objects = list(keywords.inverted_list(keyword))
            if len(objects) <= 5:
                continue
            apx = ApproximateNVD.build(graph, objects, rho=5, keyword=keyword)
            quadtree_bytes += apx.quadtree.memory_bytes()
            nvd = NetworkVoronoiDiagram(graph, objects)
            entries = []
            for o in objects:
                cell = nvd.cell(o)
                if cell:
                    entries.append(
                        (bounding_rect([graph.coordinates(v) for v in cell]), o)
                    )
            if entries:
                rtree_bytes += VoronoiRTree(entries).memory_bytes()
        series[name] = {
            "occurrences": occurrences,
            "quadtree_mb": megabytes(quadtree_bytes),
            "rtree_mb": megabytes(rtree_bytes),
        }
        rows.append(
            [name, occurrences, f"{megabytes(quadtree_bytes):.4f}",
             f"{megabytes(rtree_bytes):.4f}"]
        )
    print_table(
        "Fig 6(c) — APX-NVD container size across datasets (rho=5)",
        ["dataset", "keyword occurrences", "quadtree (MB)", "R-tree (MB)"],
        rows,
    )
    save_result("fig6c_quadtree_vs_rtree", series)

    # Shape: both containers grow with keyword occurrences, and the
    # quadtree stays within a small factor of the R-tree.
    quadtree_sizes = [series[n]["quadtree_mb"] for n in DATASET_ORDER]
    assert quadtree_sizes == sorted(quadtree_sizes)
    for name in DATASET_ORDER:
        if series[name]["rtree_mb"] > 0:
            ratio = series[name]["quadtree_mb"] / series[name]["rtree_mb"]
            assert 0.05 < ratio < 20.0

    small = get_dataset(DATASET_ORDER[0])
    objects = list(small.keywords.objects())[:12]
    benchmark.pedantic(
        lambda: ApproximateNVD.build(small.graph, objects, rho=5),
        rounds=3,
        iterations=1,
    )


def test_fig6d_parallel_construction(rho_dataset, benchmark):
    graph, keywords = rho_dataset.graph, rho_dataset.keywords
    # Measure real per-keyword serial build times, then model the
    # parallel schedule deterministically (plus one real 2-worker pool
    # sanity run where cores exist).
    index = build_keyword_nvds(graph, keywords, rho=5)
    task_times = [nvd.build_seconds for nvd in index.values()]
    serial = sum(task_times)

    series = {}
    rows = []
    for cores in (1, 2, 4, 8, 16):
        span = simulated_parallel_makespan(task_times, cores)
        speedup = serial / span if span > 0 else float("inf")
        efficiency = parallel_efficiency(serial, span, cores) if span > 0 else 1.0
        series[str(cores)] = {
            "makespan_seconds": span,
            "speedup": speedup,
            "efficiency": efficiency,
        }
        rows.append(
            [cores, f"{span:.3f}", f"{speedup:.1f}x", f"{efficiency:.0%}"]
        )
    print_table(
        f"Fig 6(d) — parallel NVD construction (LPT model over measured "
        f"per-keyword times, {rho_dataset.name})",
        ["cores", "makespan (s)", "speedup", "efficiency"],
        rows,
    )

    # One real pool run for ground truth (2 workers is safe everywhere).
    start = time.perf_counter()
    build_keyword_nvds(graph, keywords, rho=5, workers=2)
    real_two_workers = time.perf_counter() - start
    series["real_pool_2_workers_seconds"] = real_two_workers
    print(f"  real 2-worker pool build: {real_two_workers:.2f}s "
          f"(serial {serial:.2f}s of pure NVD work)")
    save_result("fig6d_parallel_build", series)

    # Shape: monotone speedup with high efficiency (paper: >80%).
    speedups = [series[str(c)]["speedup"] for c in (1, 2, 4, 8, 16)]
    assert speedups == sorted(speedups)
    assert series["8"]["efficiency"] > 0.6
    assert abs(series["1"]["speedup"] - 1.0) < 1e-9

    benchmark.pedantic(
        lambda: simulated_parallel_makespan(task_times, 8),
        rounds=5,
        iterations=1,
    )


def test_fig6_ablation_alt_landmarks(rho_dataset, benchmark):
    """Ablation: ALT landmark count m vs bound tightness and query time.

    Shape: more landmarks -> tighter bounds (higher LB/d ratio) and
    fewer exact distance computations per query."""
    import random

    from repro.distance import ContractionHierarchy
    from repro.graph import dijkstra_distance

    graph, keywords = rho_dataset.graph, rho_dataset.keywords
    ch = ContractionHierarchy(graph)
    rng = random.Random(66)
    pairs = [
        (rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices))
        for _ in range(60)
    ]
    exact = {pair: dijkstra_distance(graph, *pair) for pair in pairs}
    generator = WorkloadGenerator(graph, keywords, seed=67)
    workload = generator.queries(DEFAULT_TERMS, 4, 3)

    series = {}
    rows = []
    for m in (1, 4, 16):
        alt = AltLowerBounder(graph, num_landmarks=m)
        ratios = [
            alt.lower_bound(*pair) / exact[pair]
            for pair in pairs
            if exact[pair] > 0 and exact[pair] < float("inf")
        ]
        tightness = sum(ratios) / len(ratios)
        kspin = KSpin(graph, keywords, oracle=ch, lower_bounder=alt, rho=5)
        distances = 0
        for q in workload:
            kspin.execute(Query(q.vertex, q.keywords, k=DEFAULT_K))
            distances += kspin.last_stats.distance_computations
        series[str(m)] = {
            "tightness": tightness,
            "distances_per_query": distances / len(workload),
        }
        rows.append(
            [m, f"{tightness:.3f}", f"{distances / len(workload):.1f}"]
        )
    print_table(
        "Fig 6 ablation — ALT landmark count m (B10NN, terms=2)",
        ["m", "mean LB/d tightness", "exact distances per query"],
        rows,
    )
    save_result("fig6_ablation_alt_landmarks", series)

    assert series["16"]["tightness"] >= series["1"]["tightness"]
    assert (
        series["16"]["distances_per_query"]
        <= series["1"]["distances_per_query"] + 1e-9
    )

    benchmark.pedantic(
        lambda: AltLowerBounder(graph, num_landmarks=4),
        rounds=3,
        iterations=1,
    )
