"""2-hop hub labeling by pruned landmark labeling (PLL), array-backed.

The paper's fastest variant, KS-PHL, plugs Pruned Highway Labeling
(Akiba et al., ALENEX 2014) into K-SPIN.  PHL is a road-network-optimised
member of the 2-hop labeling family: every vertex stores a *label* of
``(hub, distance)`` pairs such that any two vertices share a hub on their
shortest path; a query is a linear merge of two labels.

We implement the family's canonical exact algorithm, pruned landmark
labeling (PLL), which shares PHL's query-time profile — O(|label|)
lookups, no graph traversal, large index — which is exactly the role PHL
plays in the paper's evaluation (fast queries, highest space cost).  The
substitution is documented in DESIGN.md §5.

Storage layout
--------------
Labels are *flat sorted arrays*, not dicts: three numpy arrays

* ``_indptr`` — ``int64[n + 1]``; vertex ``v``'s label occupies the
  slice ``_indptr[v]:_indptr[v + 1]`` of the other two;
* ``_hub_ids`` — ``int32``; hub *ordinals* (positions in the importance
  order), ascending within each vertex's slice;
* ``_hub_dists`` — ``float64``; the exact hub distances.

mirroring :class:`repro.kernels.csr.CSRGraph`.  A point-to-point query
is one sorted merge over two contiguous slices; batched queries
(:meth:`distances_many`, :meth:`knn_many`) densify one source label and
vectorise over whole target label rows.  The arrays pickle as-is and
are never mutated after construction, so fork-after-build cluster
workers share them copy-on-write and rehydrated workers answer
bit-identically (the index is a pure function of graph + order).

Vertex order drives label size.  Road networks have no natural hubs, so
the default order is descending Contraction Hierarchies rank
(``order="ch"`` — the order the paper's KS-PHL evaluation implies);
``order="degree"`` restores the cheap standalone order, and any explicit
permutation is accepted.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from repro.distance.base import DistanceOracle
from repro.graph.road_network import RoadNetwork

INFINITY = math.inf


def importance_order(graph: RoadNetwork, kind: str = "ch") -> list[int]:
    """A most-to-least-important vertex permutation for label builds.

    ``"ch"`` contracts the graph and returns descending CH rank (small
    labels, costs one CH construction); ``"degree"`` returns descending
    degree with vertex-id tiebreak (cheap, larger labels).  Both are
    deterministic functions of the graph.
    """
    if kind == "degree":
        return sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v))
    if kind == "ch":
        from repro.distance.ch import ContractionHierarchy

        ch = ContractionHierarchy(graph)
        return sorted(graph.vertices(), key=lambda v: (-ch.rank[v], v))
    raise ValueError(f"unknown importance order {kind!r}; pick 'ch' or 'degree'")


class HubLabeling(DistanceOracle):
    """Pruned 2-hop labeling index (PLL), the repo's "PHL" oracle.

    Parameters
    ----------
    graph:
        Road network to index.
    order:
        Vertices from most to least important: an explicit permutation,
        or ``"ch"`` (default — descending Contraction Hierarchies rank,
        the small labels used in benchmarks) or ``"degree"``.
    """

    name = "PHL"

    @property
    def labeling(self) -> "HubLabeling":
        """The label store behind label seeding: this oracle itself
        (a :class:`CompositeOracle` exposes its inner one the same way)."""
        return self

    def __init__(
        self, graph: RoadNetwork, order: Sequence[int] | str = "ch"
    ) -> None:
        super().__init__()
        graph._require_symmetric(type(self).__name__)
        self._n = graph.num_vertices
        if isinstance(order, str):
            order_list = importance_order(graph, order)
        else:
            order_list = [int(v) for v in order]
            if sorted(order_list) != list(range(self._n)):
                raise ValueError("order must be a permutation of all vertices")
        self._order = order_list
        hubs, dists = self._build(graph, order_list)
        # Flatten into the CSR-style layout.  Hub ordinals were appended
        # in increasing build order, so every per-vertex slice is
        # already sorted — the invariant every merge below relies on.
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        for v in range(self._n):
            indptr[v + 1] = indptr[v] + len(hubs[v])
        self._indptr = indptr
        self._hub_ids = np.asarray(
            [h for row in hubs for h in row], dtype=np.int32
        )
        self._hub_dists = np.asarray(
            [d for row in dists for d in row], dtype=np.float64
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(
        self, graph: RoadNetwork, order: list[int]
    ) -> tuple[list[list[int]], list[list[float]]]:
        """Pruned landmark labeling over the cached CSR arrays.

        One pruned Dijkstra per hub, most important first.  The CSR
        view's flat ``indptr``/``indices``/``weights`` (materialised as
        python lists once — list indexing beats numpy scalar indexing in
        this python-level inner loop) replace per-vertex adjacency
        tuples, and labels grow as parallel append-only lists sorted by
        hub ordinal.
        """
        csr = graph.csr()
        indptr: list[int] = csr.indptr.tolist()
        heads: list[int] = csr.indices.tolist()
        weights: list[float] = csr.weights.tolist()
        label_hubs: list[list[int]] = [[] for _ in range(self._n)]
        label_dists: list[list[float]] = [[] for _ in range(self._n)]
        for ordinal, hub in enumerate(order):
            hub_hubs = label_hubs[hub]
            hub_dists = label_dists[hub]
            distances = {hub: 0.0}
            heap = [(0.0, hub)]
            while heap:
                dist_u, u = heapq.heappop(heap)
                if dist_u > distances.get(u, INFINITY):
                    continue
                # Prune: if existing labels already certify a distance
                # <= dist_u between hub and u, u (and its subtree) need
                # no new label entry.
                if (
                    _merge_lists(
                        hub_hubs, hub_dists, label_hubs[u], label_dists[u]
                    )
                    <= dist_u
                ):
                    continue
                label_hubs[u].append(ordinal)
                label_dists[u].append(dist_u)
                for arc in range(indptr[u], indptr[u + 1]):
                    v = heads[arc]
                    candidate = dist_u + weights[arc]
                    if candidate < distances.get(v, INFINITY):
                        distances[v] = candidate
                        heapq.heappush(heap, (candidate, v))
        return label_hubs, label_dists

    # ------------------------------------------------------------------
    # Point-to-point queries
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Exact distance: one sorted merge of two contiguous label rows."""
        self.query_count += 1
        if source == target:
            return 0.0
        indptr = self._indptr
        return _merge_arrays(
            self._hub_ids,
            self._hub_dists,
            int(indptr[source]),
            int(indptr[source + 1]),
            int(indptr[target]),
            int(indptr[target + 1]),
        )

    def distances_many(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[float]:
        """Pairwise distances with one merge pass per target label.

        Pairs are grouped by source; each distinct source's label is
        densified once into a hub-indexed vector, after which every
        target costs a single vectorised gather-add-min over its
        contiguous label row — no per-pair python merge, no sequential
        ``distance`` shim.
        """
        if len(sources) != len(targets):
            raise ValueError(
                f"pairwise call needs equal lengths, got "
                f"{len(sources)} sources and {len(targets)} targets"
            )
        if not sources:
            return []
        out = [0.0] * len(sources)
        by_source: dict[int, list[int]] = {}
        for position, s in enumerate(sources):
            by_source.setdefault(int(s), []).append(position)
        indptr = self._indptr
        hub_ids = self._hub_ids
        hub_dists = self._hub_dists
        for s, positions in by_source.items():
            dense = self.dense_source_vector(s)
            for position in positions:
                t = int(targets[position])
                if t == s:
                    continue  # out[position] stays 0.0
                lo, hi = int(indptr[t]), int(indptr[t + 1])
                if lo == hi:
                    out[position] = INFINITY
                    continue
                sums = dense[hub_ids[lo:hi]] + hub_dists[lo:hi]
                out[position] = float(sums.min())
        self.query_count += len(out)
        return out

    def knn_many(
        self, sources: Sequence[int], candidates: Sequence[int], k: int
    ) -> list[list[tuple[int, float]]]:
        """Per-source k nearest candidates, vectorised over label rows.

        One dense source vector per source, one gather-add per
        candidate-label row via a single segmented reduction
        (``np.minimum.reduceat``) — the whole candidate set is scored
        in one numpy dispatch per source.  Tie-break and result shape
        match the sequential definition exactly.
        """
        if k < 1:
            raise ValueError("k must be positive")
        candidate_list = [int(c) for c in candidates]
        if not candidate_list:
            return [[] for _ in sources]
        # Built once and reused across all sources.
        hubs, dists, offsets = self.label_rows(candidate_list)
        out: list[list[tuple[int, float]]] = []
        for s in sources:
            s = int(s)
            dense = self.dense_source_vector(s)
            per_candidate = np.minimum.reduceat(dense[hubs] + dists, offsets)
            self.query_count += len(candidate_list)
            scored = sorted(
                ((0.0 if c == s else float(d)), c)
                for c, d in zip(candidate_list, per_candidate)
            )
            out.append([(c, d) for d, c in scored[:k] if d != INFINITY])
        return out

    def label_rows(
        self, vertices: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hubs, dists, offsets)``: the label rows of ``vertices``,
        concatenated for one segmented scan.

        With ``dense = dense_source_vector(s)``,
        ``np.minimum.reduceat(dense[hubs] + dists, offsets)`` is the
        exact distance from ``s`` to every vertex, in the given order
        (``inf`` for an unreachable one).  ``reduceat`` needs each
        segment non-empty, so an empty label is padded with one
        sentinel entry that always scores ``inf``.
        """
        vertex_ids = np.asarray(vertices, dtype=np.int64)
        starts = self._indptr[vertex_ids]
        widths = self._indptr[vertex_ids + 1] - starts
        gather = _row_gather_index(starts, widths)
        return _pad_segments(widths, self._hub_ids[gather], self._hub_dists[gather])

    def dense_source_vector(self, source: int) -> np.ndarray:
        """``float64[num hubs]`` of hub distances from ``source``.

        ``inf`` for hubs absent from the label.  This is the shared
        kernel of every batched query: densifying once turns each
        target-label merge into a vectorised gather.
        """
        lo, hi = int(self._indptr[source]), int(self._indptr[source + 1])
        dense = np.full(self._n, INFINITY, dtype=np.float64)
        dense[self._hub_ids[lo:hi]] = self._hub_dists[lo:hi]
        return dense

    # ------------------------------------------------------------------
    # Label access (object-label building, diagnostics)
    # ------------------------------------------------------------------
    def label(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(hub ordinals, distances)`` views of ``v``'s label row."""
        lo, hi = int(self._indptr[v]), int(self._indptr[v + 1])
        return self._hub_ids[lo:hi], self._hub_dists[lo:hi]

    def hub_vertex(self, ordinal: int) -> int:
        """The graph vertex behind a hub ordinal."""
        return self._order[ordinal]

    @property
    def num_vertices(self) -> int:
        return self._n

    def label_size(self, v: int) -> int:
        """Number of hub entries in the label of ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def average_label_size(self) -> float:
        """Mean label entries per vertex (index-quality metric)."""
        return float(self._indptr[-1]) / self._n

    def num_label_entries(self) -> int:
        """Total ``(hub, distance)`` entries across all labels."""
        return int(self._indptr[-1])

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """The real label storage: exact array footprint plus the order
        (12 bytes per entry + the indptr and order vectors)."""
        return int(
            self._indptr.nbytes
            + self._hub_ids.nbytes
            + self._hub_dists.nbytes
            + 8 * self._n  # the ordinal -> vertex order list payload
        )


def _merge_lists(
    hubs_a: list[int],
    dists_a: list[float],
    hubs_b: list[int],
    dists_b: list[float],
) -> float:
    """Sorted two-pointer merge of two in-build label lists."""
    best = INFINITY
    i = j = 0
    len_a, len_b = len(hubs_a), len(hubs_b)
    while i < len_a and j < len_b:
        ha, hb = hubs_a[i], hubs_b[j]
        if ha == hb:
            total = dists_a[i] + dists_b[j]
            if total < best:
                best = total
            i += 1
            j += 1
        elif ha < hb:
            i += 1
        else:
            j += 1
    return best


def _merge_arrays(
    hub_ids: np.ndarray,
    hub_dists: np.ndarray,
    a_lo: int,
    a_hi: int,
    b_lo: int,
    b_hi: int,
) -> float:
    """Sorted merge of two label rows of the flat arrays."""
    common, idx_a, idx_b = np.intersect1d(
        hub_ids[a_lo:a_hi],
        hub_ids[b_lo:b_hi],
        assume_unique=True,
        return_indices=True,
    )
    if common.size == 0:
        return INFINITY
    return float(
        (hub_dists[a_lo:a_hi][idx_a] + hub_dists[b_lo:b_hi][idx_b]).min()
    )


def _row_gather_index(starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Indices selecting the concatenation of ``[s, s+w)`` ranges.

    Branch-free multi-range arange: seed an all-ones step vector, then
    overwrite the step at each segment boundary with the jump from the
    previous range's end to the next range's start; a cumulative sum
    yields every index in one pass.
    """
    total = int(widths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    nonzero = widths > 0
    nz_starts = starts[nonzero].astype(np.int64)
    nz_widths = widths[nonzero].astype(np.int64)
    steps = np.ones(total, dtype=np.int64)
    steps[0] = nz_starts[0]
    if len(nz_starts) > 1:
        boundaries = np.cumsum(nz_widths)[:-1]
        prev_ends = nz_starts[:-1] + nz_widths[:-1]
        steps[boundaries] = nz_starts[1:] - prev_ends + 1
    return np.cumsum(steps)


def _pad_segments(
    widths: np.ndarray, hubs: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hubs, dists, offsets)`` for ``np.minimum.reduceat`` over rows.

    Empty rows get one sentinel entry (hub 0 with an ``inf`` distance,
    which no source distance can bring below ``inf``) so every reduceat
    segment is non-empty.
    """
    empty_mask = widths == 0
    if not empty_mask.any():
        offsets = np.zeros(len(widths), dtype=np.int64)
        np.cumsum(widths[:-1], out=offsets[1:])
        return hubs, dists, offsets
    padded_widths = np.where(empty_mask, 1, widths)
    offsets = np.zeros(len(padded_widths), dtype=np.int64)
    np.cumsum(padded_widths[:-1], out=offsets[1:])
    total = int(padded_widths.sum())
    out_hubs = np.zeros(total, dtype=hubs.dtype)
    out_dists = np.full(total, INFINITY, dtype=np.float64)
    fill = np.ones(total, dtype=bool)
    fill[offsets[empty_mask]] = False
    out_hubs[fill] = hubs
    out_dists[fill] = dists
    return out_hubs, out_dists, offsets
