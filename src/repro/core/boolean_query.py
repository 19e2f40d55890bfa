"""Mixed conjunctive/disjunctive Boolean queries (paper §2 remark).

The paper notes K-SPIN "can be used to handle a combination of AND and
OR operators, e.g., find k closest POIs that contain Thai and (takeaway
or restaurant)".  This module implements that: queries are expressed in
**conjunctive normal form** — an AND of OR-groups::

    BooleanExpression([["thai"], ["takeaway", "restaurant"]])
    # thai AND (takeaway OR restaurant)

The search itself is :meth:`repro.core.query_processor.QueryProcessor.
_search` (``bknn_cnf`` / ``top_k_cnf``), the same loop that answers
plain OR and AND queries; this module holds the expression type and
the brute-force references the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.graph.road_network import RoadNetwork
from repro.text.documents import KeywordDataset
from repro.text.relevance import RelevanceModel

INFINITY = math.inf


@dataclass(frozen=True)
class BooleanExpression:
    """An AND of OR-groups over keywords (conjunctive normal form)."""

    groups: tuple[tuple[str, ...], ...]

    def __init__(self, groups: Sequence[Sequence[str]]) -> None:
        cleaned = tuple(
            tuple(dict.fromkeys(str(t) for t in group)) for group in groups
        )
        if not cleaned or any(not group for group in cleaned):
            raise ValueError("expression needs at least one non-empty OR-group")
        object.__setattr__(self, "groups", cleaned)

    @classmethod
    def conjunction(cls, keywords: Sequence[str]) -> "BooleanExpression":
        """``k1 AND k2 AND ...`` — one singleton group per keyword."""
        return cls([[t] for t in keywords])

    @classmethod
    def disjunction(cls, keywords: Sequence[str]) -> "BooleanExpression":
        """``k1 OR k2 OR ...`` — a single group."""
        return cls([list(keywords)])

    def keywords(self) -> tuple[str, ...]:
        """All distinct keywords mentioned, in first-appearance order."""
        seen: dict[str, None] = {}
        for group in self.groups:
            for t in group:
                seen.setdefault(t)
        return tuple(seen)

    def matches(self, has_keyword: Callable[[str], bool]) -> bool:
        """Evaluate against a ``has_keyword(keyword) -> bool`` callback."""
        return all(any(has_keyword(t) for t in group) for group in self.groups)

    def __str__(self) -> str:
        rendered = [
            "(" + " OR ".join(group) + ")" if len(group) > 1 else group[0]
            for group in self.groups
        ]
        return " AND ".join(rendered)


def brute_force_boolean_top_k(
    graph: RoadNetwork,
    dataset: KeywordDataset,
    relevance: RelevanceModel,
    query: int,
    k: int,
    expression: BooleanExpression,
) -> list[tuple[int, float]]:
    """Reference: full Dijkstra + filter + exhaustive scoring."""
    from repro.graph.dijkstra import dijkstra_all

    distances = dijkstra_all(graph, query)
    keywords = list(expression.keywords())
    query_impacts = relevance.query_impacts(keywords)
    scored = []
    for o in dataset.objects():
        if distances[o] == INFINITY:
            continue
        if not expression.matches(lambda t, o=o: dataset.contains(o, t)):
            continue
        tr = relevance.textual_relevance(keywords, o, query_impacts)
        if tr <= 0.0:
            continue
        scored.append((distances[o] / tr, o))
    scored.sort()
    return [(o, score) for score, o in scored[:k]]


def brute_force_boolean_bknn(
    graph: RoadNetwork,
    dataset: KeywordDataset,
    query: int,
    k: int,
    expression: BooleanExpression,
) -> list[tuple[int, float]]:
    """Reference implementation: full Dijkstra plus an expression filter."""
    from repro.graph.dijkstra import dijkstra_all

    distances = dijkstra_all(graph, query)
    matches = [
        (distances[o], o)
        for o in dataset.objects()
        if distances[o] < INFINITY
        and expression.matches(lambda t, o=o: dataset.contains(o, t))
    ]
    matches.sort()
    return [(o, d) for d, o in matches[:k]]
