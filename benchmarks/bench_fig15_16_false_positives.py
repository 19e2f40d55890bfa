"""Figures 15 and 16: the false-positive deep dive (paper §7.4).

Three methods share the *same* G-tree road-network index:

* **G-tree** — the original keyword-aggregated top-k algorithm;
* **Gtree-Opt** — keyword-separated occurrence lists bolted onto the
  aggregated algorithm (§7.4.1);
* **KS-GT** — K-SPIN using the G-tree index as its distance oracle.

Paper shape: Gtree-Opt improves query time only marginally over G-tree
and shows *no* improvement in matrix operations (the aggregation
hierarchy is still evaluated to the same depth); KS-GT beats both by up
to an order of magnitude on query time and even more on matrix
operations — direct evidence that keyword separation, not implementation
detail, removes the false positives.
"""

from repro.api import Query
from repro.bench import print_table, save_result, time_queries

DEFAULT_K = 10
DEFAULT_TERMS = 2
K_VALUES = [1, 5, 10, 25]
NUM_VECTORS = 6
VERTICES_PER_VECTOR = 3


def _measure(suite, workload, k):
    """Query time and matrix operations per method at one k."""
    methods = {
        "KS-GT": suite.ks_gt,
        "Gtree-Opt": suite.gtree_opt,
        "G-tree": suite.gtree_sk,
    }
    queries = [Query(q.vertex, q.keywords, k=k, kind="topk") for q in workload]
    times = {}
    operations = {}
    for name, method in methods.items():
        suite.gtree.reset_counters()
        # KS-GT's oracle cache must not leak between methods: clear it
        # like the baselines clear theirs per query.
        summary = time_queries(
            [
                (
                    lambda q=q, method=method: (
                        suite.gtree.clear_cache(),
                        method.execute(q),
                    )
                )
                for q in queries
            ]
        )
        times[name] = summary.mean_milliseconds
        operations[name] = suite.gtree.matrix_operations / len(workload)
    return times, operations


def test_fig15_16_false_positive_deep_dive(primary_suite, benchmark):
    suite = primary_suite
    generator = suite.workload(seed=151)
    workload = generator.queries(DEFAULT_TERMS, NUM_VECTORS, VERTICES_PER_VECTOR)

    time_series = {}
    op_series = {}
    for k in K_VALUES:
        times, operations = _measure(suite, workload, k)
        time_series[str(k)] = times
        op_series[str(k)] = operations

    method_names = ["KS-GT", "Gtree-Opt", "G-tree"]
    print_table(
        f"Fig 15 — top-k query time (ms) on the shared G-tree index "
        f"({suite.dataset.name}, terms=2)",
        ["k"] + method_names,
        [
            [k] + [f"{time_series[str(k)][m]:.3f}" for m in method_names]
            for k in K_VALUES
        ],
    )
    print_table(
        "Fig 16 — matrix operations per query (same runs)",
        ["k"] + method_names,
        [
            [k] + [f"{op_series[str(k)][m]:.0f}" for m in method_names]
            for k in K_VALUES
        ],
    )
    save_result(
        "fig15_16_false_positives",
        {"query_time_ms": time_series, "matrix_operations": op_series},
    )

    for k in K_VALUES:
        times = time_series[str(k)]
        operations = op_series[str(k)]
        # KS-GT uses the same index with far fewer matrix operations:
        # the direct false-positive evidence.
        assert operations["KS-GT"] < operations["G-tree"]
        assert operations["KS-GT"] < operations["Gtree-Opt"]
        # Gtree-Opt shows little-to-no matrix-operation improvement.
        assert operations["Gtree-Opt"] > 0.5 * operations["G-tree"]
        # And KS-GT wins on wall-clock too.
        assert times["KS-GT"] < times["G-tree"]

    query = workload[0]
    timed = Query(query.vertex, query.keywords, k=DEFAULT_K, kind="topk")
    benchmark.pedantic(
        lambda: suite.ks_gt.execute(timed),
        rounds=5,
        iterations=1,
    )
