"""Textual relevance: impacts, cosine similarity, weighted distance (paper §2).

The paper scores objects with *weighted distance*::

    ST(q, o) = d(q, o) / TR(psi, o)                         (Eq. 1)

where ``TR`` is cosine similarity over TF x IDF weights, rewritten in
terms of pre-computable *impacts* (Eq. 3)::

    TR(psi, o)  = sum_t  lambda_{t,psi} * lambda_{t,o}
    lambda_{t,x} = w_{t,x} / sqrt(sum_{t' in x} w_{t',x}^2)
    w_{t,o}      = 1 + ln f_{t,o}
    w_{t,psi}    = ln(1 + |O| / |inv(t)|)                   (IDF)

Object impacts depend only on the dataset and are pre-computed offline by
:class:`RelevanceModel`; query impacts are computed once per query.  The
model also exposes ``lambda_{t,max}`` — the maximum impact of each
keyword over all objects — which Algorithm 2 uses for pseudo lower-bound
scores.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.text.documents import KeywordDataset


class RelevanceModel:
    """Pre-computed impact-based cosine relevance over a keyword dataset.

    Examples
    --------
    >>> data = KeywordDataset({1: ["thai", "restaurant"], 2: ["grocer"]})
    >>> model = RelevanceModel(data)
    >>> model.textual_relevance(["thai"], 1) > 0
    True
    >>> model.textual_relevance(["thai"], 2)
    0.0
    """

    def __init__(self, dataset: KeywordDataset) -> None:
        self._dataset = dataset
        self._num_objects = dataset.num_objects
        # lambda_{t,o} for every (object, keyword) occurrence.
        self._object_impacts: dict[int, dict[str, float]] = {}
        # lambda_{t,max} per keyword (used by pseudo lower bounds).
        self._max_impacts: dict[str, float] = {}
        for o in dataset.objects():
            impacts = self.document_impacts(dataset.document(o))
            self._object_impacts[o] = impacts
            self._lift(impacts)

    # ------------------------------------------------------------------
    # Impacts
    # ------------------------------------------------------------------
    @staticmethod
    def document_impacts(document: dict[str, int]) -> dict[str, float]:
        """``lambda_{t,o}`` for a raw ``{keyword: frequency}`` document."""
        weights = {t: 1.0 + math.log(f) for t, f in document.items() if f > 0}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        return {t: w / norm for t, w in weights.items()}

    def _lift(self, impacts: dict[str, float]) -> None:
        for t, impact in impacts.items():
            if impact > self._max_impacts.get(t, 0.0):
                self._max_impacts[t] = impact

    def lift_max_impacts(self, document: dict[str, int]) -> None:
        """Keep ``lambda_{t,max}`` an upper bound after a write.

        ``document`` is an object's document as a lazy update left it.
        Pseudo lower bounds divide by the maxima, so they may only grow:
        a running maximum stays admissible (merely looser) however the
        corpus changes.
        """
        self._lift(self.document_impacts(document))

    def object_impact(self, obj: int, keyword: str) -> float:
        """``lambda_{t,o}`` (0 if the keyword is absent from the document)."""
        return self._object_impacts.get(obj, {}).get(keyword, 0.0)

    def max_impact(self, keyword: str) -> float:
        """``lambda_{t,max}`` — the largest impact of ``keyword`` in any object."""
        return self._max_impacts.get(keyword, 0.0)

    def idf(self, keyword: str) -> float:
        """``w_{t,psi} = ln(1 + |O| / |inv(t)|)``; 0 for unknown keywords."""
        size = self._dataset.inverted_size(keyword)
        if size == 0:
            return 0.0
        return math.log(1.0 + self._num_objects / size)

    def query_impacts(self, keywords: Sequence[str]) -> dict[str, float]:
        """``lambda_{t,psi}`` for each query keyword.

        Computed once per query (paper's implementation notes, §4.2).
        Query keyword frequency is 1, so ``w_{t,psi}`` is pure IDF.
        """
        weights = {t: self.idf(t) for t in dict.fromkeys(keywords)}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm == 0.0:
            return {t: 0.0 for t in weights}
        return {t: w / norm for t, w in weights.items()}

    # ------------------------------------------------------------------
    # Scores
    # ------------------------------------------------------------------
    def textual_relevance(
        self,
        keywords: Sequence[str],
        obj: int,
        query_impacts: dict[str, float] | None = None,
    ) -> float:
        """``TR(psi, o)`` by Eq. 3 (impact dot-product)."""
        if query_impacts is None:
            query_impacts = self.query_impacts(keywords)
        impacts = self._object_impacts.get(obj)
        if not impacts:
            return 0.0
        return sum(
            (weight * impacts[t] for t, weight in query_impacts.items() if t in impacts),
            0.0,
        )

    def spatio_textual_score(
        self,
        distance: float,
        keywords: Sequence[str],
        obj: int,
        query_impacts: dict[str, float] | None = None,
    ) -> float:
        """Weighted distance ``ST = d / TR`` (Eq. 1); ``inf`` when TR = 0."""
        relevance = self.textual_relevance(keywords, obj, query_impacts)
        if relevance <= 0.0:
            return math.inf
        return distance / relevance

    def relevance_from_document(
        self, document: dict[str, int], query_impacts: dict[str, float]
    ) -> float:
        """``TR`` computed directly from a raw ``{keyword: frequency}`` doc.

        Used for objects whose documents changed after the model was
        built (lazy updates), where the pre-computed impacts are stale.
        """
        impacts = self.document_impacts(document)
        return sum(
            (weight * impacts[t] for t, weight in query_impacts.items() if t in impacts),
            0.0,
        )

    def max_textual_relevance(
        self, keywords: Sequence[str], query_impacts: dict[str, float] | None = None
    ) -> float:
        """``TR_max(psi, .)`` — upper bound over any possible object.

        Uses the true per-keyword maximum impacts, the quantity the
        paper's valid all-unseen lower bound divides by.
        """
        if query_impacts is None:
            query_impacts = self.query_impacts(keywords)
        return sum(
            (weight * self.max_impact(t) for t, weight in query_impacts.items()), 0.0
        )


def weighted_sum_score(
    distance: float,
    relevance: float,
    alpha: float = 0.5,
    max_distance: float = 1.0,
) -> float:
    """The alternative *weighted sum* scorer mentioned in §2.

    ``alpha * d/d_max + (1 - alpha) * (1 - TR)`` — lower is better,
    mirroring the weighted-distance convention.  K-SPIN's techniques are
    orthogonal to the scorer; this is provided for completeness and used
    by an ablation benchmark.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be within [0, 1]")
    if max_distance <= 0:
        raise ValueError("max_distance must be positive")
    normalised = min(1.0, distance / max_distance)
    return alpha * normalised + (1.0 - alpha) * (1.0 - relevance)
