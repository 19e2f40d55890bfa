"""Answers are checked inside the run, against ``repro.core.reference``.

After each timed phase the runner re-checks a seeded 1-in-50 sample of the
answers, and every answer of the warm-up, with brute force (one full
Dijkstra per query).  ``engine_update_mix`` is checked against a shadow
dataset the runner derives from the operation stream alone.
"""

from __future__ import annotations

from repro.api import Query, UpdateOp
from repro.core.reference import (
    brute_force_bknn,
    brute_force_top_k,
    results_equivalent,
)
from repro.text.documents import KeywordDataset


class Reference:
    """Brute-force answers over the dataset the image was built from."""

    def __init__(self, kspin) -> None:
        self.graph = kspin.graph
        self.dataset = kspin.dataset
        self.relevance = kspin.relevance

    def expected(self, query: Query) -> list[tuple[int, float]]:
        if query.kind == "bknn":
            return brute_force_bknn(
                self.graph,
                self.dataset,
                query.vertex,
                query.k,
                query.keywords,
                conjunctive=query.conjunctive,
            )
        return brute_force_top_k(
            self.graph,
            self.dataset,
            self.relevance,
            query.vertex,
            query.k,
            query.keywords,
        )

    def mismatches(self, query: Query, pairs) -> bool:
        """Whether ``pairs`` differs from the reference answer."""
        answer = [(int(obj), float(score)) for obj, score in pairs]
        return not results_equivalent(answer, self.expected(query))


class ShadowReference(Reference):
    """The reference under updates: documents replayed from the op stream.

    Only BkNN answers are checked: top-k scores use corpus statistics the
    index freezes at build time, so after an update the brute-force score
    over the new corpus is a different, equally valid, definition.
    """

    def __init__(self, kspin) -> None:
        super().__init__(kspin)
        self.documents = {
            obj: kspin.dataset.document(obj) for obj in kspin.dataset.objects()
        }

    def apply(self, op: UpdateOp) -> None:
        if op.op == "insert":
            self.documents[op.object] = op.document_counts()
        elif op.op == "delete":
            del self.documents[op.object]
        elif op.op == "add_keyword":
            self.documents[op.object][op.keyword] = op.frequency

    def mismatches(self, query: Query, pairs) -> bool:
        self.dataset = KeywordDataset(self.documents)
        return super().mismatches(query, pairs)
