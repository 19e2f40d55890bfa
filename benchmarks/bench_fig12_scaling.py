"""Figures 12(a) and 12(b): query time vs road network size.

Paper shape: KS-PHL wins on every dataset for both top-k and
disjunctive BkNN, and the K-SPIN advantage over the aggregated methods
*grows* with dataset size (bigger graphs aggregate more keywords per
hierarchy node, degrading their pruning).
"""

import pytest

from repro.api import Query
from repro.bench import build_methods, print_table, save_result, time_queries
from repro.datasets import DATASET_ORDER

DEFAULT_K = 10
DEFAULT_TERMS = 2
NUM_VECTORS = 5
VERTICES_PER_VECTOR = 3

#: The ladder rungs this benchmark sweeps (all five).
SCALING_DATASETS = DATASET_ORDER


@pytest.fixture(scope="module")
def suites():
    return {name: build_methods(name) for name in SCALING_DATASETS}


def _run(suites, kind):
    series = {}
    for name, suite in suites.items():
        generator = suite.workload(seed=121)
        workload = generator.queries(DEFAULT_TERMS, NUM_VECTORS, VERTICES_PER_VECTOR)
        queries = [
            Query(q.vertex, q.keywords, k=DEFAULT_K, kind=kind) for q in workload
        ]
        methods = {
            "KS-PHL": suite.ks_phl,
            "KS-CH": suite.ks_ch,
            "G-tree": suite.gtree_sk,
        }
        row = {}
        for label, method in methods.items():
            summary = time_queries(
                [(lambda q=q, method=method: method.execute(q)) for q in queries]
            )
            row[label] = summary.mean_milliseconds
        series[name] = row
    return series


def test_fig12a_topk_vs_dataset(suites, benchmark):
    series = _run(suites, "topk")
    print_table(
        "Fig 12(a) — top-k query time (ms) vs road network (k=10, terms=2)",
        ["dataset", "KS-PHL", "KS-CH", "G-tree"],
        [
            [name]
            + [f"{series[name][m]:.3f}" for m in ("KS-PHL", "KS-CH", "G-tree")]
            for name in SCALING_DATASETS
        ],
    )
    save_result("fig12a_topk_scaling", series)

    for name in SCALING_DATASETS:
        assert series[name]["KS-PHL"] < series[name]["G-tree"]
    # The advantage grows with dataset size: the KS-PHL/G-tree speedup
    # ratio on the largest rung exceeds the smallest rung's.
    small = series[SCALING_DATASETS[0]]
    large = series[SCALING_DATASETS[-1]]
    assert (large["G-tree"] / large["KS-PHL"]) > 0.5 * (
        small["G-tree"] / small["KS-PHL"]
    )

    suite = suites[SCALING_DATASETS[0]]
    generator = suite.workload(seed=121)
    query = generator.queries(DEFAULT_TERMS, 1, 1)[0]
    timed = Query(query.vertex, query.keywords, k=DEFAULT_K, kind="topk")
    benchmark.pedantic(
        lambda: suite.ks_phl.execute(timed),
        rounds=5,
        iterations=1,
    )


def test_fig12b_bknn_vs_dataset(suites, benchmark):
    series = _run(suites, "bknn")
    print_table(
        "Fig 12(b) — disjunctive BkNN time (ms) vs road network (k=10, terms=2)",
        ["dataset", "KS-PHL", "KS-CH", "G-tree"],
        [
            [name]
            + [f"{series[name][m]:.3f}" for m in ("KS-PHL", "KS-CH", "G-tree")]
            for name in SCALING_DATASETS
        ],
    )
    save_result("fig12b_bknn_scaling", series)

    for name in SCALING_DATASETS:
        assert series[name]["KS-PHL"] < series[name]["G-tree"]

    suite = suites[SCALING_DATASETS[0]]
    generator = suite.workload(seed=122)
    query = generator.queries(DEFAULT_TERMS, 1, 1)[0]
    timed = Query(query.vertex, query.keywords, k=DEFAULT_K)
    benchmark.pedantic(
        lambda: suite.ks_phl.execute(timed),
        rounds=5,
        iterations=1,
    )
