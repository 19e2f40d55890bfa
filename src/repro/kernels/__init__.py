"""Flat-array (CSR) graph kernels — the repository's one search path.

Every query and index build ultimately bottoms out in Dijkstra-style
scans.  This package expresses them over a compressed-sparse-row (CSR)
view of the graph — three numpy arrays (``indptr``/``indices``/
``weights``) built once, cached on the graph object, and invalidated by
mutation — and dispatches them to :mod:`scipy.sparse.csgraph`.  numpy
and scipy are required dependencies; there is no other backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernels.csr import CSRGraph
from repro.kernels.search import (
    match_scan,
    multi_source,
    p2p,
    sssp,
    sssp_rows,
    to_targets,
)
from repro.kernels.workspace import SearchWorkspace, get_workspace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.graph.road_network import RoadNetwork

__all__ = [
    "CSRGraph",
    "SearchWorkspace",
    "get_workspace",
    "match_scan",
    "multi_source",
    "p2p",
    "sssp",
    "sssp_rows",
    "to_targets",
    "warm",
]


def warm(graph: RoadNetwork) -> None:
    """Eagerly build (and cache) a graph's CSR views.

    Call this *before* forking worker processes so the arrays are
    materialised once in the parent and shared copy-on-write, instead of
    being rebuilt lazily in every child.
    """
    graph.csr()
    graph.csr_in()
