"""Compressed-sparse-row (CSR) graph views.

A :class:`CSRGraph` is three flat numpy arrays:

* ``indptr`` — ``int64[n + 1]``; vertex ``v``'s arcs occupy the slice
  ``indptr[v]:indptr[v + 1]`` of the other two arrays;
* ``indices`` — ``int32[m]``; arc heads;
* ``weights`` — ``float64[m]``; arc weights.

Two-way streets store *both* arcs, so searches always run
``directed=True`` over the matrix — scipy then skips its symmetrise
pass and the semantics match a walk of the adjacency lists exactly.  A
:class:`~repro.graph.road_network.RoadNetwork` hands out two views,
``csr()`` over leaving arcs and ``csr_in()`` over entering arcs (a
reverse search is a forward search over the latter); they are one
object while the graph is symmetric.  The arrays
are immutable by convention: graph mutation invalidates the cached view
and the next build produces a fresh object, so object identity doubles
as a cache epoch for anything keyed on the view (see
:class:`~repro.kernels.workspace.SearchWorkspace`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix


class CSRGraph:
    """An immutable flat-array adjacency view of a road network."""

    __slots__ = ("indptr", "indices", "weights", "num_vertices", "num_arcs", "_matrix")

    def __init__(self, indptr: Any, indices: Any, weights: Any) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.num_vertices = int(self.indptr.shape[0]) - 1
        self.num_arcs = int(self.indices.shape[0])
        if int(self.indptr[-1]) != self.num_arcs or self.weights.shape != self.indices.shape:
            raise ValueError("inconsistent CSR arrays")
        self._matrix: Any = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arcs(
        cls,
        num_vertices: int,
        arcs_of: Callable[[int], Sequence[tuple[int, float]]],
    ) -> "CSRGraph":
        """Build from any per-vertex arc accessor (tail-major order)."""
        heads: list[int] = []
        weights: list[float] = []
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        for v in range(num_vertices):
            arcs = arcs_of(v)
            indptr[v + 1] = indptr[v] + len(arcs)
            for head, weight in arcs:
                heads.append(head)
                weights.append(weight)
        return cls(
            indptr,
            np.asarray(heads, dtype=np.int32),
            np.asarray(weights, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # scipy interop
    # ------------------------------------------------------------------
    def matrix(self) -> Any:
        """The arrays wrapped as a ``scipy.sparse.csr_matrix`` (cached)."""
        if self._matrix is None:
            n = self.num_vertices
            self._matrix = csr_matrix(
                (self.weights, self.indices, self.indptr), shape=(n, n)
            )
        return self._matrix

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def structural_fingerprint(self) -> str:
        """sha256 over the exact array bytes plus the dimensions.

        Two CSR views are interchangeable for every search iff their
        fingerprints match; the cluster tests use this to prove workers
        share bit-identical graph views.
        """
        digest = hashlib.sha256()
        digest.update(f"csr:{self.num_vertices}:{self.num_arcs}".encode())
        digest.update(self.indptr.tobytes())
        digest.update(self.indices.tobytes())
        digest.update(self.weights.tobytes())
        return digest.hexdigest()

    def memory_bytes(self) -> int:
        """Exact array footprint (the whole point of the flat layout)."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(num_vertices={self.num_vertices}, num_arcs={self.num_arcs})"
