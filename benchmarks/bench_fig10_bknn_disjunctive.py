"""Figures 10(a) and 10(b): disjunctive BkNN query time vs k and #terms.

Paper shape (US dataset): KS-PHL significantly outperforms everything
at every k and term count; KS-CH matches or beats G-tree while using
less memory (G-tree narrows the gap at large k thanks to its
materialisation reuse); FS-FBS is absent (cannot be built on the
largest dataset).

Includes the lazy-heap ablation from DESIGN.md §7: lazy NVD-driven heap
population versus materialising the full inverted heap up front.
"""

from repro.api import Query
from repro.bench import print_table, save_result, time_queries
from repro.core.heap_generator import InvertedHeap

K_VALUES = [1, 5, 10, 25, 50]
TERM_VALUES = [1, 2, 3, 4, 5, 6]
DEFAULT_K = 10
DEFAULT_TERMS = 2
NUM_VECTORS = 6
VERTICES_PER_VECTOR = 3


def _methods(suite):
    return {
        "KS-PHL": suite.ks_phl,
        "KS-CH": suite.ks_ch,
        "G-tree": suite.gtree_sk,
    }


def _sweep(methods, workload, k):
    row = {}
    queries = [Query(q.vertex, q.keywords, k=k) for q in workload]
    for name, method in methods.items():
        summary = time_queries([(lambda q=q: method.execute(q)) for q in queries])
        row[name] = summary.mean_milliseconds
    return row


def test_fig10a_disjunctive_bknn_vs_k(primary_suite, benchmark):
    suite = primary_suite
    generator = suite.workload(seed=101)
    workload = generator.queries(DEFAULT_TERMS, NUM_VECTORS, VERTICES_PER_VECTOR)
    methods = _methods(suite)

    series = {k: _sweep(methods, workload, k) for k in K_VALUES}
    print_table(
        f"Fig 10(a) — disjunctive BkNN time (ms) vs k ({suite.dataset.name}, terms=2)",
        ["k"] + list(methods),
        [[k] + [f"{series[k][m]:.3f}" for m in methods] for k in K_VALUES],
    )
    save_result("fig10a_bknn_disjunctive_vs_k", {str(k): series[k] for k in K_VALUES})

    for k in K_VALUES:
        assert series[k]["KS-PHL"] < series[k]["KS-CH"]
        assert series[k]["KS-PHL"] < series[k]["G-tree"]

    query = workload[0]
    timed = Query(query.vertex, query.keywords, k=DEFAULT_K)
    benchmark.pedantic(
        lambda: suite.ks_phl.execute(timed),
        rounds=5,
        iterations=1,
    )


def test_fig10b_disjunctive_bknn_vs_terms(primary_suite, benchmark):
    suite = primary_suite
    generator = suite.workload(seed=102)
    methods = _methods(suite)

    series = {}
    for terms in TERM_VALUES:
        workload = generator.queries(terms, NUM_VECTORS, VERTICES_PER_VECTOR)
        series[terms] = _sweep(methods, workload, DEFAULT_K)
    print_table(
        f"Fig 10(b) — disjunctive BkNN time (ms) vs #terms ({suite.dataset.name}, k=10)",
        ["terms"] + list(methods),
        [[t] + [f"{series[t][m]:.3f}" for m in methods] for t in TERM_VALUES],
    )
    save_result(
        "fig10b_bknn_disjunctive_vs_terms", {str(t): series[t] for t in TERM_VALUES}
    )

    for terms in TERM_VALUES:
        assert series[terms]["KS-PHL"] < series[terms]["G-tree"]

    workload = generator.queries(DEFAULT_TERMS, 1, 1)
    timed = Query(workload[0].vertex, workload[0].keywords, k=DEFAULT_K)
    benchmark.pedantic(
        lambda: suite.ks_ch.execute(timed),
        rounds=5,
        iterations=1,
    )


def test_fig10_ablation_lazy_vs_full_heap(primary_suite, benchmark):
    """Ablation: lazy heap population vs inserting all of inv(t) up front.

    Shape: lazy population inserts far fewer objects and computes far
    fewer lower bounds per query (the point of Property 1 + Theorem 1).
    """
    suite = primary_suite
    graph = suite.dataset.graph
    keywords = suite.dataset.keywords
    frequent = keywords.frequency_rank()[0][0]
    nvd = suite.ks_ch.index.nvd(frequent)
    generator = suite.workload(seed=103)
    vertices = generator.query_vertices(20)

    lazy_insertions = 0
    full_insertions = 0
    for q in vertices:
        heap = InvertedHeap(
            frequent, nvd, q, graph.coordinates(q), suite.alt
        )
        # Drain 10 pops, the work a k=10 query does.
        for _ in range(10):
            if heap.pop() is None:
                break
        lazy_insertions += heap.inserted_count
        full_insertions += keywords.inverted_size(frequent)

    print_table(
        f"Fig 10 ablation — lazy vs full heap population (keyword {frequent!r}, "
        f"|inv| = {keywords.inverted_size(frequent)})",
        ["strategy", "objects inserted / query"],
        [
            ["lazy (Theorem 1)", f"{lazy_insertions / len(vertices):.1f}"],
            ["full materialisation", f"{full_insertions / len(vertices):.1f}"],
        ],
    )
    save_result(
        "fig10_ablation_lazy_heap",
        {
            "lazy_mean_insertions": lazy_insertions / len(vertices),
            "full_mean_insertions": full_insertions / len(vertices),
        },
    )
    assert lazy_insertions < full_insertions

    q = vertices[0]
    benchmark.pedantic(
        lambda: InvertedHeap(frequent, nvd, q, graph.coordinates(q), suite.alt),
        rounds=5,
        iterations=1,
    )
