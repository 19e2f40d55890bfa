"""Figures 14(a) and 14(b): index size and construction time per method.

Paper shape (across datasets): CH has the smallest indexed footprint,
KS-PHL by far the largest (hub labels); ROAD sits between G-tree and
KS-PHL; FS-FBS only exists on the two smallest datasets; construction
times are comparable across methods except FS-FBS, and K-SPIN's keyword
index parallelises (Fig 6(d) covers that part).

What the gate asserts is the part of that shape this code has: hub
labels outgrow CH along the ladder (the KS-PHL / KS-CH ratio rises
monotonically and passes 1 at ME-S).  Two departures are recorded in
EXPERIMENTS.md with the measured table instead of asserted: the
array-backed labels are *smaller* than CH on DE-S, and G-tree, whose
size is counted in python objects, is above KS-PHL on every rung.
"""

import pytest

from repro.bench import (
    FSFBS_DATASETS,
    build_methods,
    megabytes,
    print_table,
    save_result,
)
from repro.datasets import DATASET_ORDER

#: Keep the sweep affordable: every rung is built, matching Fig 12/14.
INDEX_DATASETS = DATASET_ORDER

METHODS = ["Input", "KS-CH", "KS-PHL", "KS-GT", "G-tree", "ROAD", "FS-FBS"]


@pytest.fixture(scope="module")
def suites():
    return {name: build_methods(name) for name in INDEX_DATASETS}


def test_fig14a_index_sizes(suites, benchmark):
    series = {}
    rows = []
    for name in INDEX_DATASETS:
        sizes = suites[name].index_sizes()
        series[name] = {m: megabytes(sizes.get(m, 0)) for m in METHODS}
        rows.append(
            [name]
            + [
                f"{series[name][m]:.2f}" if series[name][m] else "-"
                for m in METHODS
            ]
        )
    print_table(
        "Fig 14(a) — index sizes (MB) per dataset",
        ["dataset"] + METHODS,
        rows,
    )
    save_result("fig14a_index_sizes", series)

    for name in INDEX_DATASETS:
        # FS-FBS exists only on the two smallest rungs.
        if name in FSFBS_DATASETS:
            assert series[name]["FS-FBS"] > 0
        else:
            assert series[name]["FS-FBS"] == 0
    # Hub labels outgrow CH (paper: 2.6GB CH vs 17.9GB KS-PHL on US):
    # the ratio rises along the ladder and is above 1 from ME-S up.
    ratios = [
        series[name]["KS-PHL"] / series[name]["KS-CH"] for name in INDEX_DATASETS
    ]
    assert ratios == sorted(ratios)
    assert all(ratio > 1.0 for ratio in ratios[1:])
    # Sizes grow along the ladder.
    for method in ("KS-CH", "KS-PHL", "KS-GT", "G-tree", "ROAD"):
        growth = [series[name][method] for name in INDEX_DATASETS]
        assert growth == sorted(growth), method

    benchmark.pedantic(
        lambda: suites[INDEX_DATASETS[0]].index_sizes(), rounds=5, iterations=1
    )


def test_fig14b_construction_times(suites, benchmark):
    labels = ["ALT", "CH", "PHL", "G-tree index", "KS-CH", "ROAD", "FS-FBS"]
    series = {}
    rows = []
    for name in INDEX_DATASETS:
        build = suites[name].build_seconds
        series[name] = {label: build.get(label, 0.0) for label in labels}
        rows.append(
            [name]
            + [
                f"{series[name][label]:.2f}" if series[name][label] else "-"
                for label in labels
            ]
        )
    print_table(
        "Fig 14(b) — construction times (s) per dataset",
        ["dataset"] + labels,
        rows,
    )
    save_result("fig14b_construction_times", series)

    for name in INDEX_DATASETS:
        # Every built index took measurable time.
        assert series[name]["CH"] > 0
        assert series[name]["KS-CH"] > 0
    # Construction time grows along the ladder.
    growth = [series[name]["CH"] for name in INDEX_DATASETS]
    assert growth[-1] > growth[0]

    from repro.lowerbound import AltLowerBounder

    small = suites[INDEX_DATASETS[0]].dataset.graph
    benchmark.pedantic(
        lambda: AltLowerBounder(small, num_landmarks=4), rounds=3, iterations=1
    )
