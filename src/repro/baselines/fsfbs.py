"""FS-FBS baseline: forward search / forward backward search (Jiang et al.).

FS-FBS answers Boolean kNN queries over a 2-hop labeling index and its
inverse.  Every vertex stores a *label* of ``(hub, distance)`` pairs with
the 2-hop cover property; for each hub, a *backward label* lists the
objects that carry the hub, sorted by distance.  A query merges the
query vertex's label with the backward labels of its hubs best-first,
producing candidate objects in exact ascending distance order.

Keyword handling follows the original design and carries its flaws:

* **Frequent keywords** are aggregated into per-object *bit-array
  hashes*; a candidate is verified against the hash first, and hash
  collisions yield false positives that cost a real document check
  (``hash_false_positives`` counts them).
* **Infrequent keywords** have no ordered access at all — FS-FBS
  "simply computes network distances to all vertices containing the
  infrequent keyword", evaluating the entire inverted list.

The pre-processing is the heaviest of all baselines (backward labels
replicate every object label), which is why the paper could not build
it on FL/E/US; the benchmarks mirror that with a build-cost guard.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

from repro.api import (
    Query,
    QueryResult,
    ensure_supported,
    hits_from_pairs,
)
from repro.distance.hub_labeling import HubLabeling
from repro.graph.road_network import RoadNetwork
from repro.text.documents import KeywordDataset

INFINITY = math.inf


class FsFbs:
    """FS-FBS Boolean kNN index.

    Parameters
    ----------
    graph, dataset:
        Road network and keyword dataset.
    labeling:
        A pre-built :class:`HubLabeling`; built (CH-rank order) if omitted.
    frequency_threshold:
        Keywords with ``|inv(t)|`` above this are "frequent" and use the
        bit-array path; the paper notes the best value must be found
        experimentally — an awkwardness of the design.
    hash_bits:
        Width of the keyword bit-array hash (small = more collisions).
    """

    name = "FS-FBS"

    def __init__(
        self,
        graph: RoadNetwork,
        dataset: KeywordDataset,
        labeling: HubLabeling | None = None,
        frequency_threshold: int = 10,
        hash_bits: int = 64,
    ) -> None:
        graph._require_symmetric(type(self).__name__)
        if hash_bits < 1:
            raise ValueError("hash_bits must be positive")
        self._graph = graph
        self._dataset = dataset
        self._labels = labeling if labeling is not None else HubLabeling(graph)
        self.frequency_threshold = frequency_threshold
        self.hash_bits = hash_bits
        self.hash_false_positives = 0
        self.distance_computations = 0
        # Backward labels restricted to objects: hub -> [(distance, object)]
        # ascending — the expensive inverse index.
        self._backward: dict[int, list[tuple[float, int]]] = {}
        self._build_backward_labels()
        # Keyword bit arrays per object (frequent keywords only).
        self._object_masks: dict[int, int] = {}
        for o in dataset.objects():
            mask = 0
            for keyword in dataset.document(o):
                if self._is_frequent(keyword):
                    mask |= 1 << (hash(keyword) % hash_bits)
            self._object_masks[o] = mask

    def _build_backward_labels(self) -> None:
        # Hubs are label ordinals (consistent with the forward side).
        for o in self._dataset.objects():
            hub_ids, hub_dists = self._labels.label(o)
            for hub, distance in zip(hub_ids.tolist(), hub_dists.tolist()):
                self._backward.setdefault(hub, []).append((distance, o))
        for entries in self._backward.values():
            entries.sort()

    def _is_frequent(self, keyword: str) -> bool:
        return self._dataset.inverted_size(keyword) > self.frequency_threshold

    def _keyword_mask(self, keywords: Sequence[str]) -> int:
        mask = 0
        for keyword in keywords:
            mask |= 1 << (hash(keyword) % self.hash_bits)
        return mask

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _bknn(
        self,
        query: int,
        k: int,
        keywords: Sequence[str],
        conjunctive: bool = False,
    ) -> list[tuple[int, float]]:
        """Boolean kNN via forward-backward label search."""
        keywords = list(dict.fromkeys(keywords))
        if k < 1:
            raise ValueError("k must be positive")
        if not keywords:
            raise ValueError("need at least one query keyword")
        frequent = [t for t in keywords if self._is_frequent(t)]
        infrequent = [t for t in keywords if not self._is_frequent(t)]
        matcher = (
            self._dataset.contains_all if conjunctive else self._dataset.contains_any
        )
        results: list[tuple[float, int]] = []
        seen: set[int] = set()
        if infrequent:
            self._scan_infrequent(
                query, infrequent, keywords, matcher, results, seen
            )
        if frequent and not (conjunctive and infrequent):
            # With a conjunctive query containing an infrequent keyword,
            # the infrequent scan already covered every possible match.
            self._forward_backward_search(
                query, k, frequent, keywords, matcher, conjunctive, results, seen
            )
        results.sort()
        return [(o, d) for d, o in results[:k]]

    def execute(self, query: Query) -> QueryResult:
        """Answer one :class:`repro.api.Query` (the canonical entry point).

        FS-FBS answers Boolean kNN only (paper Table 1: no top-k).
        """
        ensure_supported(query, self.name, topk=False)
        pairs = self._bknn(
            query.vertex,
            query.k,
            list(query.keywords),
            conjunctive=query.conjunctive,
        )
        return QueryResult(hits=hits_from_pairs(query.kind, pairs))

    def execute_many(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch of queries in order (sequential reference path)."""
        from repro.api import execute_many_sequential

        return execute_many_sequential(self, queries)

    def _scan_infrequent(
        self,
        query: int,
        infrequent: list[str],
        keywords: list[str],
        matcher,
        results: list[tuple[float, int]],
        seen: set[int],
    ) -> None:
        """Evaluate the *entire* inverted list of each infrequent keyword.

        The design's weakness: no ordered access means no early
        termination (paper §8)."""
        candidates: set[int] = set()
        for keyword in infrequent:
            candidates.update(self._dataset.inverted_list(keyword))
        for o in sorted(candidates):
            if o in seen or not matcher(o, keywords):
                continue
            seen.add(o)
            distance = self._labels.distance(query, o)
            self.distance_computations += 1
            if distance < INFINITY:
                results.append((distance, o))

    def _forward_backward_search(
        self,
        query: int,
        k: int,
        frequent: list[str],
        keywords: list[str],
        matcher,
        conjunctive: bool,
        results: list[tuple[float, int]],
        seen: set[int],
    ) -> None:
        """Best-first merge of the query label with backward labels.

        Yields objects in exact ascending distance order; each candidate
        passes the bit-array filter before the true document check."""
        query_mask = self._keyword_mask(frequent)
        hub_ids, hub_dists = self._labels.label(query)
        query_label = dict(zip(hub_ids.tolist(), hub_dists.tolist()))
        merge: list[tuple[float, int, int]] = []  # (bound, hub, position)
        for hub, to_hub in query_label.items():
            entries = self._backward.get(hub)
            if entries:
                merge.append((to_hub + entries[0][0], hub, 0))
        heapq.heapify(merge)
        # Collect k matches from the frequent path regardless of how many
        # infrequent-path results exist: FBS yields in ascending distance,
        # so the first k frequent matches dominate any later ones, and the
        # final sort merges the two candidate pools exactly.
        found = 0
        emitted: set[int] = set(seen)
        while merge and found < k:
            bound, hub, position = heapq.heappop(merge)
            entries = self._backward[hub]
            _, candidate = entries[position]
            if position + 1 < len(entries):
                next_bound = query_label[hub] + entries[position + 1][0]
                heapq.heappush(merge, (next_bound, hub, position + 1))
            if candidate in emitted:
                continue
            emitted.add(candidate)
            mask = self._object_masks.get(candidate, 0)
            if conjunctive:
                passes = (mask & query_mask) == query_mask
            else:
                passes = (mask & query_mask) != 0
            if not passes:
                continue
            # Bit arrays collide: verify against the real document.
            if not matcher(candidate, keywords):
                self.hash_false_positives += 1
                continue
            self.distance_computations += 1
            results.append((bound, candidate))
            found += 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        self.hash_false_positives = 0
        self.distance_computations = 0

    def memory_bytes(self) -> int:
        """Forward labels + backward labels + bit arrays: the largest
        pre-processing footprint of all baselines."""
        backward = sum(len(e) for e in self._backward.values()) * 24
        masks = len(self._object_masks) * (8 + self.hash_bits // 8)
        return self._labels.memory_bytes() + backward + masks
