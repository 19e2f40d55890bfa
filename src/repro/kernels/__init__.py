"""Flat-array (CSR) graph kernels — the repository's fast path.

Every query and index build ultimately bottoms out in Dijkstra-style
scans.  The pure-Python implementations in :mod:`repro.graph.dijkstra`
walk per-vertex lists of ``(neighbor, weight)`` tuples; this package
re-expresses the same searches over a compressed-sparse-row (CSR) view
of the graph — three numpy arrays (``indptr``/``indices``/``weights``)
built once, cached on the graph object, and invalidated by mutation —
and dispatches the hot ones to :mod:`scipy.sparse.csgraph`.

Backend selection
-----------------
The ``REPRO_KERNELS`` environment variable picks the backend:

``auto`` (default)
    Use the CSR kernels when scipy is importable, else fall back to the
    list-based implementations.
``csr`` / ``numpy``
    Request the CSR kernels (still silently falls back when scipy is
    missing, so a bare checkout keeps working).
``python``
    Force the list-based reference implementations.  This is the
    correctness oracle the property tests compare against and the
    baseline the perf-regression harness measures speedups over.

The list-based code paths are never deleted: they define the semantics,
and :func:`use_backend` lets tests and benchmarks flip between the two
in-process.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.kernels.csr import CSRGraph
from repro.kernels.search import (
    match_scan,
    multi_source,
    p2p,
    scipy_available,
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
    "active_backend",
    "enabled",
    "flat_buffers_enabled",
    "get_workspace",
    "match_scan",
    "multi_source",
    "p2p",
    "scipy_available",
    "sssp",
    "sssp_rows",
    "to_targets",
    "use_backend",
    "warm",
]

#: Backend names accepted by ``REPRO_KERNELS`` / :func:`use_backend`.
_CHOICES = ("auto", "csr", "numpy", "python")

#: In-process override installed by :func:`use_backend`; wins over the
#: environment while a ``with use_backend(...)`` block is active.
_override: str | None = None


def _requested() -> str:
    """The raw backend request (override, then environment, then auto)."""
    if _override is not None:
        return _override
    value = os.environ.get("REPRO_KERNELS", "auto").strip().lower()
    return value if value in _CHOICES else "auto"


def active_backend() -> str:
    """The backend actually in effect: ``"csr"`` or ``"python"``.

    ``csr`` requires scipy; every other request degrades to the
    list-based implementations rather than failing.
    """
    choice = _requested()
    if choice == "python":
        return "python"
    return "csr" if scipy_available() else "python"


def enabled() -> bool:
    """True when searches dispatch to the CSR kernels."""
    return active_backend() == "csr"


def flat_buffers_enabled() -> bool:
    """True unless the python backend is forced.

    The generation-stamped :class:`SearchWorkspace` buffers are pure
    python — no scipy involved — so label-setting searches that only
    need preallocated scratch (the contraction hierarchy's bidirectional
    query) stay fast even on a scipy-less interpreter.
    """
    return _requested() != "python"


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Force a backend within a ``with`` block (benchmarks, tests).

    >>> from repro import kernels
    >>> with kernels.use_backend("python"):
    ...     assert kernels.active_backend() == "python"
    """
    if name not in _CHOICES:
        raise ValueError(f"unknown kernels backend {name!r}; pick one of {_CHOICES}")
    global _override
    previous = _override
    _override = name
    try:
        yield
    finally:
        _override = previous


def warm(graph: RoadNetwork) -> None:
    """Eagerly build (and cache) a graph's CSR views.

    Call this *before* forking worker processes so the arrays are
    materialised once in the parent and shared copy-on-write, instead of
    being rebuilt lazily in every child.  A no-op when the python
    backend is active.
    """
    if enabled():
        graph.csr()
        graph.csr_in()
