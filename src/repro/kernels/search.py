"""Search primitives over :class:`~repro.kernels.csr.CSRGraph`.

:mod:`repro.graph.dijkstra` exposes each of these over a
:class:`~repro.graph.road_network.RoadNetwork`; the property tests in
``tests/test_kernels.py`` check them against a textbook binary-heap
Dijkstra on random undirected and one-way graphs.  The heavy lifting is
delegated to ``scipy.sparse.csgraph.dijkstra`` (a C implementation over
exactly our flat arrays).

Two deliberate semantic notes:

* CSR views store both arcs of an undirected edge, so every call runs
  ``directed=True`` — same results, and scipy skips its symmetrise pass.
* ``multi_source`` breaks exact distance ties by scipy's internal heap
  order.  Every owner is a true nearest source; real-valued road
  weights make exact ties measure-zero, and all processes agree
  bit-for-bit (what the cluster fingerprint tests require).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.kernels.csr import CSRGraph
from repro.kernels.workspace import SearchWorkspace


def sssp(csr: CSRGraph, source: int, workspace: SearchWorkspace | None = None) -> Any:
    """Distances from ``source`` to every vertex (``inf`` if unreachable).

    With a workspace, the run is memoised under ``(csr, source)`` so the
    refinement step's repeated same-source queries cost one search total.
    The returned array is workspace-owned scratch — read, don't mutate.
    """
    if workspace is not None:
        cached = workspace.cached_sssp(csr, source)
        if cached is not None:
            return cached
    distances = dijkstra(csr.matrix(), directed=True, indices=source)
    if workspace is not None:
        return workspace.store_sssp(csr, source, distances)
    return distances


def sssp_rows(csr: CSRGraph, sources: Iterable[int]) -> Any:
    """One distance row per source, as a ``(len(sources), n)`` array.

    This is the batched form the ALT landmark table wants: one C-level
    call instead of ``len(sources)`` python Dijkstras.
    """
    index_list = list(sources)
    if not index_list:
        return np.empty((0, csr.num_vertices), dtype=np.float64)
    rows = dijkstra(csr.matrix(), directed=True, indices=index_list)
    return np.atleast_2d(rows)


def p2p(
    csr: CSRGraph,
    source: int,
    target: int,
    workspace: SearchWorkspace | None = None,
) -> float:
    """Point-to-point distance ``d(source -> target)``."""
    if source == target:
        return 0.0
    return float(sssp(csr, source, workspace)[target])


def to_targets(
    csr: CSRGraph,
    source: int,
    targets: Iterable[int],
    workspace: SearchWorkspace | None = None,
) -> dict[int, float]:
    """Distances from ``source`` to each target (``inf`` if unreachable)."""
    distances = sssp(csr, source, workspace)
    return {t: float(distances[t]) for t in set(targets)}


def multi_source(csr: CSRGraph, sources: Iterable[int]) -> tuple[Any, Any]:
    """Grow shortest-path trees from all ``sources`` at once.

    Returns ``(distances, owners)`` as numpy arrays; ``owners[v]`` is
    the nearest source (``-1`` where none is reachable).  This is the
    NVD labelling kernel: one C call instead of a python heap walk.
    """
    source_list = sorted(set(sources))
    if not source_list:
        raise ValueError("multi_source needs at least one source")
    distances, _predecessors, owners = dijkstra(
        csr.matrix(),
        directed=True,
        indices=source_list,
        min_only=True,
        return_predecessors=True,
    )
    owners = owners.astype(np.int64, copy=True)
    owners[~np.isfinite(distances)] = -1
    return distances, owners


def match_scan(
    csr: CSRGraph,
    source: int,
    k: int,
    is_match: Callable[[int], bool],
    workspace: SearchWorkspace | None = None,
) -> list[tuple[int, float]]:
    """Incremental-expansion kNN: first ``k`` matching vertices by distance.

    A heap-based expansion settles vertices in ``(distance, vertex)``
    order; scanning a stable argsort of the full distance array visits
    vertices in exactly that order, ties included.
    """
    if k <= 0:
        return []
    distances = sssp(csr, source, workspace)
    order = np.argsort(distances, kind="stable")
    results: list[tuple[int, float]] = []
    for v in order.tolist():
        distance = float(distances[v])
        if math.isinf(distance):
            break
        if is_match(v):
            results.append((v, distance))
            if len(results) == k:
                break
    return results
