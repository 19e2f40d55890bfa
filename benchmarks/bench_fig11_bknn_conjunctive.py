"""Figures 11(a) and 11(b): conjunctive BkNN query time vs k and #terms.

Paper shape (US dataset): K-SPIN's advantage over G-tree is *more*
pronounced than for disjunctive queries (aggregation suffers more false
positives when all keywords must match), and K-SPIN query times
*improve* with more query keywords, because the least frequent keyword
of a longer vector has an even smaller inverted list.

Includes the least-frequent-keyword ablation from DESIGN.md §7.
"""

from repro.api import Query
from repro.bench import print_table, save_result, time_queries
from repro.core.query_processor import QueryStats

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
    queries = [Query(q.vertex, q.keywords, k=k, mode="and") for q in workload]
    return {
        name: time_queries(
            [(lambda q=q: method.execute(q)) for q in queries]
        ).mean_milliseconds
        for name, method in methods.items()
    }


def test_fig11a_conjunctive_bknn_vs_k(primary_suite, benchmark):
    suite = primary_suite
    generator = suite.workload(seed=111)
    workload = generator.queries(DEFAULT_TERMS, NUM_VECTORS, VERTICES_PER_VECTOR)
    methods = _methods(suite)

    series = {k: _sweep(methods, workload, k) for k in K_VALUES}
    print_table(
        f"Fig 11(a) — conjunctive BkNN time (ms) vs k ({suite.dataset.name}, terms=2)",
        ["k"] + list(methods),
        [[k] + [f"{series[k][m]:.3f}" for m in methods] for k in K_VALUES],
    )
    save_result("fig11a_bknn_conjunctive_vs_k", {str(k): series[k] for k in K_VALUES})

    for k in K_VALUES:
        assert series[k]["KS-PHL"] < series[k]["G-tree"]
        assert series[k]["KS-CH"] < series[k]["G-tree"]

    query = workload[0]
    timed = Query(query.vertex, query.keywords, k=DEFAULT_K, mode="and")
    benchmark.pedantic(
        lambda: suite.ks_phl.execute(timed),
        rounds=5,
        iterations=1,
    )


def test_fig11b_conjunctive_bknn_vs_terms(primary_suite, benchmark):
    suite = primary_suite
    generator = suite.workload(seed=112)
    methods = _methods(suite)

    series = {}
    for terms in TERM_VALUES:
        workload = generator.queries(terms, NUM_VECTORS, VERTICES_PER_VECTOR)
        series[terms] = _sweep(methods, workload, DEFAULT_K)
    print_table(
        f"Fig 11(b) — conjunctive BkNN time (ms) vs #terms ({suite.dataset.name}, k=10)",
        ["terms"] + list(methods),
        [[t] + [f"{series[t][m]:.3f}" for m in methods] for t in TERM_VALUES],
    )
    save_result(
        "fig11b_bknn_conjunctive_vs_terms", {str(t): series[t] for t in TERM_VALUES}
    )

    for terms in TERM_VALUES:
        assert series[terms]["KS-PHL"] < series[terms]["G-tree"]
    # More keywords do not blow up K-SPIN conjunctive time (the least
    # frequent keyword only gets rarer): the 4-term point must not be
    # dramatically slower than the 2-term point.
    assert series[4]["KS-PHL"] < 4 * series[2]["KS-PHL"] + 0.5

    workload = generator.queries(DEFAULT_TERMS, 1, 1)
    timed = Query(workload[0].vertex, workload[0].keywords, k=DEFAULT_K, mode="and")
    benchmark.pedantic(
        lambda: suite.ks_ch.execute(timed),
        rounds=5,
        iterations=1,
    )


def test_fig11_ablation_least_frequent_keyword(primary_suite, benchmark):
    """Ablation: scanning the least vs most frequent keyword's heap.

    The paper's §4.1.2 chooses the least frequent keyword because its
    heap has the fewest candidates; scanning the most frequent instead
    must examine at least as many candidates."""
    suite = primary_suite
    keywords_dataset = suite.dataset.keywords
    generator = suite.workload(seed=113)
    workload = [
        q
        for q in generator.queries(3, NUM_VECTORS, VERTICES_PER_VECTOR)
        if len({keywords_dataset.inverted_size(t) for t in q.keywords}) > 1
    ]
    assert workload, "need queries with keywords of differing frequency"

    processor = suite.ks_ch.processor
    iterations = {"least": 0, "most": 0}
    for q in workload:
        keywords = list(q.keywords)
        # Least frequent (the implemented strategy).
        processor.bknn(q.vertex, DEFAULT_K, keywords, conjunctive=True)
        iterations["least"] += processor.last_stats.iterations
        # Most frequent: emulate by scanning that keyword's heap and
        # filtering, reusing the private conjunctive machinery.
        most = max(keywords, key=lambda t: keywords_dataset.inverted_size(t))
        stats = QueryStats()
        heaps = processor._create_heaps(q.vertex, [most], stats)
        if not heaps:
            continue
        heap = heaps[0]
        found = 0
        while not heap.empty() and found < DEFAULT_K:
            popped = heap.pop()
            if popped is None:
                break
            candidate, _ = popped
            iterations["most"] += 1
            if all(
                suite.ks_ch.index.has_keyword(candidate, t) for t in keywords
            ):
                found += 1

    print_table(
        "Fig 11 ablation — heap keyword choice for conjunctive BkNN (k=10, terms=3)",
        ["strategy", "total candidates examined"],
        [
            ["least frequent keyword (paper)", iterations["least"]],
            ["most frequent keyword", iterations["most"]],
        ],
    )
    save_result("fig11_ablation_least_frequent", iterations)
    assert iterations["least"] <= iterations["most"]

    query = workload[0]
    timed = Query(query.vertex, query.keywords, k=DEFAULT_K, mode="and")
    benchmark.pedantic(
        lambda: suite.ks_ch.execute(timed),
        rounds=5,
        iterations=1,
    )
