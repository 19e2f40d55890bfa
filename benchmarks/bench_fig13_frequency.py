"""Figure 13: single-keyword BkNN query time vs keyword frequency.

Keywords are bucketed by object density ``|inv(t)| / |V|`` (the paper's
x-axis tics); single-keyword B10NN queries isolate the frequency
effect.  Paper shape: K-SPIN outperforms G-tree in every bucket, with
KS-PHL more than an order of magnitude faster; the single-keyword
setting is G-tree's *best* case (no multi-keyword aggregation damage),
so the KS-CH gap is smaller here than in Figures 9-11.
"""

from repro.api import Query
from repro.bench import print_table, save_result, time_queries

DEFAULT_K = 10
DENSITY_BUCKETS = [0.0, 0.002, 0.005, 0.01]
QUERIES_PER_BUCKET = 10


def test_fig13_keyword_frequency(primary_suite, benchmark):
    suite = primary_suite
    generator = suite.workload(seed=131)
    workloads = generator.single_keyword_queries_by_density(
        DENSITY_BUCKETS, QUERIES_PER_BUCKET
    )

    methods = {
        "KS-PHL": suite.ks_phl,
        "KS-CH": suite.ks_ch,
        "G-tree": suite.gtree_sk,
    }

    series = {}
    rows = []
    for bucket in DENSITY_BUCKETS:
        queries = [
            Query(q.vertex, q.keywords, k=DEFAULT_K) for q in workloads[bucket]
        ]
        if not queries:
            continue
        row = {}
        for name, method in methods.items():
            summary = time_queries(
                [(lambda q=q, method=method: method.execute(q)) for q in queries]
            )
            row[name] = summary.mean_milliseconds
        series[str(bucket)] = row
        rows.append(
            [f">= {bucket}"] + [f"{row[m]:.3f}" for m in methods]
        )

    print_table(
        f"Fig 13 — single-keyword B10NN time (ms) vs keyword density "
        f"({suite.dataset.name})",
        ["density bucket"] + list(methods),
        rows,
    )
    save_result("fig13_keyword_frequency", series)

    assert series, "need at least one non-empty density bucket"
    for row in series.values():
        assert row["KS-PHL"] < row["G-tree"]
        assert row["KS-PHL"] < row["KS-CH"]

    bucket = next(b for b in DENSITY_BUCKETS if workloads[b])
    query = workloads[bucket][0]
    timed = Query(query.vertex, query.keywords, k=DEFAULT_K)
    benchmark.pedantic(
        lambda: suite.ks_phl.execute(timed),
        rounds=5,
        iterations=1,
    )
