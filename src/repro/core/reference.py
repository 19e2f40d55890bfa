"""Brute-force reference answers for spatial keyword queries.

These are the ground truth every index-based method is validated
against: plain Dijkstra expansion plus exhaustive scoring.  They are
deliberately simple and obviously correct — the test suite compares
K-SPIN, G-tree SK, ROAD, and FS-FBS results against them, and the
benchmarks use them as the "network expansion" baseline the paper
excludes for being orders of magnitude slower.

"Simple" refers to the logic, not the speed: ``dijkstra_all`` here is
the CSR kernel from :mod:`repro.graph.dijkstra` (scipy's C Dijkstra),
which shares nothing with any K-SPIN structure.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.graph.dijkstra import dijkstra_all
from repro.graph.road_network import RoadNetwork
from repro.text.documents import KeywordDataset
from repro.text.relevance import RelevanceModel


def brute_force_bknn(
    graph: RoadNetwork,
    dataset: KeywordDataset,
    query: int,
    k: int,
    keywords: Sequence[str],
    conjunctive: bool = False,
) -> list[tuple[int, float]]:
    """Exact BkNN by full single-source Dijkstra plus a filter."""
    if k < 1:
        raise ValueError("k must be positive")
    distances = dijkstra_all(graph, query)
    matcher = dataset.contains_all if conjunctive else dataset.contains_any
    matches = [
        (distances[o], o)
        for o in dataset.objects()
        if matcher(o, keywords) and distances[o] < math.inf
    ]
    matches.sort()
    return [(o, d) for d, o in matches[:k]]


def brute_force_top_k(
    graph: RoadNetwork,
    dataset: KeywordDataset,
    relevance: RelevanceModel,
    query: int,
    k: int,
    keywords: Sequence[str],
) -> list[tuple[int, float]]:
    """Exact top-k by scoring every object with Eq. 1."""
    if k < 1:
        raise ValueError("k must be positive")
    distances = dijkstra_all(graph, query)
    query_impacts = relevance.query_impacts(keywords)
    scored = []
    for o in dataset.objects():
        tr = relevance.textual_relevance(keywords, o, query_impacts)
        if tr <= 0.0 or distances[o] == math.inf:
            continue
        scored.append((distances[o] / tr, o))
    scored.sort()
    return [(o, score) for score, o in scored[:k]]


def results_equivalent(
    left: list[tuple[int, float]],
    right: list[tuple[int, float]],
    tolerance: float = 1e-6,
) -> bool:
    """Whether two result lists agree up to ties at equal scores.

    Different exact algorithms may break score ties differently; two
    lists are equivalent when their score sequences match and each
    prefix of tied objects contains the same object set.
    """
    if len(left) != len(right):
        return False
    scores_left = [s for _, s in left]
    scores_right = [s for _, s in right]
    for a, b in zip(scores_left, scores_right):
        if abs(a - b) > tolerance * max(1.0, abs(a), abs(b)):
            return False
    # Group by (approximately) equal score and compare object sets.
    index = 0
    while index < len(left):
        end = index + 1
        while (
            end < len(left)
            and abs(scores_left[end] - scores_left[index])
            <= tolerance * max(1.0, abs(scores_left[index]))
        ):
            end += 1
        group_left = {o for o, _ in left[index:end]}
        group_right = {o for o, _ in right[index:end]}
        # Tied groups truncated by k may legitimately differ in members;
        # interior groups must match exactly.
        if end < len(left) and group_left != group_right:
            return False
        index = end
    return True
