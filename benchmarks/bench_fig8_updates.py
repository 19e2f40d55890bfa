"""Figure 8: handling updates with lazy APX-NVD maintenance (paper §6.2).

The paper picks keywords from the lower, middle, and upper thirds of the
frequency distribution ("small", "medium", "large" NVDs), lazily inserts
x% of each diagram's object count, and reports:

* **8(a)** query time after 1% / 2% / 5% lazy insertions — shape:
  modest growth, queries remain fast and exact;
* **8(b)** mean per-insert cost vs the one-off rebuild cost — shape:
  per-insert cost orders of magnitude below the rebuild, making lazy
  amortisation worthwhile.
"""

import copy

from repro.api import Query, UpdateOp
from repro.bench import print_table, save_result, time_queries
from repro.core import KSpin
from repro.core.updates import apply_lazy_inserts, pick_update_keywords
from repro.datasets import WorkloadGenerator
from repro.distance import ContractionHierarchy
from repro.lowerbound import AltLowerBounder
from repro.nvd import ApproximateNVD

DEFAULT_K = 10
INSERT_FRACTIONS = [0.01, 0.02, 0.05]


def test_fig8a_query_time_after_lazy_inserts(rho_dataset, benchmark):
    graph, keywords = rho_dataset.graph, rho_dataset.keywords
    alt = AltLowerBounder(graph, num_landmarks=16)
    ch = ContractionHierarchy(graph)
    chosen = pick_update_keywords(keywords, rho=5)
    generator = WorkloadGenerator(graph, keywords, seed=81)
    vertices = generator.query_vertices(15)

    series = {}
    rows = []
    for label, keyword in chosen.items():
        kspin = KSpin(graph, keywords, oracle=ch, lower_bounder=alt, rho=5)
        row = {"keyword": keyword, "inv_size": keywords.inverted_size(keyword)}
        baseline = time_queries(
            [
                (lambda q=q, ks=kspin: ks.execute(Query(q, [keyword], k=DEFAULT_K)))
                for q in vertices
            ]
        ).mean_milliseconds
        row["0%"] = baseline
        applied = 0.0
        for fraction in INSERT_FRACTIONS:
            nvd = kspin.index.nvd(keyword)
            extra = fraction - applied
            apply_fraction = max(extra, 1e-6)
            # apply_lazy_inserts rebuilds at the end for timing; here we
            # want the lazy state kept, so insert directly.
            count = max(1, int(len(nvd.objects) * apply_fraction))
            free = [
                v
                for v in graph.vertices()
                if v not in nvd.objects and not keywords.is_object(v)
            ][:count]
            for v in free:
                kspin.apply(UpdateOp("insert", object=v, document=[keyword]))
            applied = fraction
            timing = time_queries(
                [
                    (lambda q=q, ks=kspin: ks.execute(Query(q, [keyword], k=DEFAULT_K)))
                    for q in vertices
                ]
            ).mean_milliseconds
            row[f"{fraction:.0%}"] = timing
        series[label] = row
        rows.append(
            [label, keyword, row["inv_size"]]
            + [f"{row[c]:.3f}" for c in ("0%", "1%", "2%", "5%")]
        )
    print_table(
        f"Fig 8(a) — B10NN query time (ms) after x% lazy inserts "
        f"({rho_dataset.name})",
        ["NVD", "keyword", "|inv|", "0%", "1%", "2%", "5%"],
        rows,
    )
    save_result("fig8a_query_time_after_inserts", series)

    # Shape: lazy updates cost something but do not blow queries up.
    for label, row in series.items():
        assert row["5%"] < 20 * row["0%"] + 1.0

    kspin = KSpin(graph, keywords, oracle=ch, lower_bounder=alt, rho=5)
    keyword = chosen["large"]
    timed = Query(vertices[0], [keyword], k=DEFAULT_K)
    benchmark.pedantic(
        lambda: kspin.execute(timed),
        rounds=5,
        iterations=1,
    )


def test_fig8b_insert_vs_rebuild_cost(rho_dataset, benchmark):
    """Insertion cost is dominated by the Network Distance Module calls
    (1NN among the seed candidates + Theorem-2 checks), so this panel
    plugs in the fastest oracle (hub labels, as in KS-PHL) — the paper's
    framework explicitly reuses "the Network Distance Module already
    available" for d(o, p)."""
    from repro.distance import HubLabeling

    graph, keywords = rho_dataset.graph, rho_dataset.keywords
    ch = HubLabeling(graph)
    chosen = pick_update_keywords(keywords, rho=5)

    series = {}
    rows = []
    for label, keyword in chosen.items():
        nvd = ApproximateNVD.build(
            graph, list(keywords.inverted_list(keyword)), rho=5, keyword=keyword
        )
        costs = apply_lazy_inserts(copy.deepcopy(nvd), graph, 0.05, ch.distance)
        series[label] = {
            "keyword": keyword,
            "inserted": costs.inserted,
            "mean_insert_ms": costs.mean_insert_seconds * 1000,
            "rebuild_ms": costs.rebuild_seconds * 1000,
        }
        rows.append(
            [
                label,
                keyword,
                costs.inserted,
                f"{costs.mean_insert_seconds * 1000:.3f}",
                f"{costs.rebuild_seconds * 1000:.3f}",
            ]
        )
    print_table(
        f"Fig 8(b) — lazy insert vs rebuild cost ({rho_dataset.name}, 5% inserts)",
        ["NVD", "keyword", "#inserted", "mean insert (ms)", "rebuild (ms)"],
        rows,
    )
    save_result("fig8b_insert_vs_rebuild", series)

    # Shape: per-insert cost well below the rebuild cost for the large
    # NVD (the amortisation argument).
    large = series["large"]
    assert large["mean_insert_ms"] < large["rebuild_ms"]

    keyword = chosen["large"]
    nvd = ApproximateNVD.build(
        graph, list(keywords.inverted_list(keyword)), rho=5, keyword=keyword
    )
    free_vertex = next(
        v for v in graph.vertices() if v not in nvd.objects
    )
    benchmark.pedantic(
        lambda: copy.deepcopy(nvd).insert_object(
            free_vertex, graph.coordinates(free_vertex), ch.distance
        ),
        rounds=5,
        iterations=1,
    )
