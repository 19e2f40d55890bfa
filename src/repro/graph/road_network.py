"""Road-network graph substrate.

The paper models a road network as a connected undirected graph
``G = (V, E)`` with positive edge weights (travel time or length) and
vertex coordinates, "to make exposition simpler".  This module provides
:class:`RoadNetwork`, the single graph representation shared by every
index in the repository (K-SPIN, Contraction Hierarchies, hub labeling,
G-tree, ROAD, FS-FBS, NVDs).  Two-way streets come from
:meth:`RoadNetwork.add_edge`, one-way streets from
:meth:`RoadNetwork.add_arc`; distances are then directional,
``d(u -> v)``, and every search says which way it walks.

Vertices are dense integers ``0 .. n-1``.  Adjacency is stored as one
Python list per vertex of ``(neighbor, weight)`` tuples, which profiling
showed to be the fastest pure-Python layout for Dijkstra-style scans.
While no one-way arc has been added the in-adjacency *is* the
out-adjacency (the same list objects), so an undirected graph pays
nothing for the orientation it does not have.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.kernels.csr import CSRGraph


class RoadNetworkError(ValueError):
    """Raised for structurally invalid road-network operations."""


class RoadNetwork:
    """A weighted road network with vertex coordinates.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.

    Examples
    --------
    >>> g = RoadNetwork(3)
    >>> g.add_edge(0, 1, 2.0)
    >>> g.add_edge(1, 2, 3.0)
    >>> sorted(g.neighbors(1))
    [(0, 2.0), (2, 3.0)]
    >>> g.add_arc(2, 0, 1.0)  # a one-way street
    >>> g.symmetric, g.in_neighbors(0)
    (False, [(1, 2.0), (2, 1.0)])
    """

    __slots__ = (
        "_adjacency", "_in", "_coordinates", "_num_edges", "_csr", "_csr_in",
    )

    def __init__(self, num_vertices: int) -> None:
        if num_vertices <= 0:
            raise RoadNetworkError("a road network needs at least one vertex")
        self._adjacency: list[list[tuple[int, float]]] = [
            [] for _ in range(num_vertices)
        ]
        # In-arcs per vertex; aliases the out-adjacency until add_arc.
        self._in = self._adjacency
        self._coordinates: list[tuple[float, float]] = [
            (0.0, 0.0) for _ in range(num_vertices)
        ]
        self._num_edges = 0
        self._csr: CSRGraph | None = None
        self._csr_in: CSRGraph | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add a two-way street ``(u, v)`` with positive ``weight``.

        Parallel edges are collapsed: if the edge already exists, the
        smaller weight is kept (standard road-network convention).
        """
        if not self.symmetric:
            self.add_arc(u, v, weight)
            self.add_arc(v, u, weight)
            return
        self._check_arc(u, v, weight)
        existing = self.edge_weight(u, v)
        if existing is not None:
            if weight < existing:
                self._replace_arc_weight(u, v, weight)  # both mirrored entries
            return
        self._adjacency[u].append((v, float(weight)))
        self._adjacency[v].append((u, float(weight)))
        self._num_edges += 1
        self._csr = None

    def add_arc(self, u: int, v: int, weight: float) -> None:
        """Add the one-way arc ``u -> v``; parallel arcs keep the minimum.

        The first call splits the in-adjacency from the out-adjacency
        and the graph stops being :attr:`symmetric` for good.
        """
        self._check_arc(u, v, weight)
        if self.symmetric:
            self._in = [list(arcs) for arcs in self._adjacency]
            self._num_edges *= 2  # from here on the count is arcs
        existing = self.edge_weight(u, v)
        if existing is not None:
            if weight < existing:
                self._replace_arc_weight(u, v, weight)
            return
        self._adjacency[u].append((v, float(weight)))
        self._in[v].append((u, float(weight)))
        self._num_edges += 1
        self._csr = self._csr_in = None

    def _check_arc(self, u: int, v: int, weight: float) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise RoadNetworkError(f"self-loop on vertex {u} is not allowed")
        if weight <= 0:
            raise RoadNetworkError(
                f"edge ({u}, {v}) must have positive weight, got {weight!r}"
            )

    def set_coordinates(self, v: int, x: float, y: float) -> None:
        """Attach planar coordinates to vertex ``v`` (used by quadtrees)."""
        self._check_vertex(v)
        self._coordinates[v] = (float(x), float(y))

    def _replace_arc_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite arc ``u -> v`` in the out-list of ``u`` and the
        in-list of ``v`` (the same entry of a symmetric graph's mirror)."""
        for arcs, other in ((self._adjacency[u], v), (self._in[v], u)):
            for index, (neighbor, _) in enumerate(arcs):
                if neighbor == other:
                    arcs[index] = (other, float(weight))
                    break
        self._csr = self._csr_in = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """``|E|``: how many items :meth:`edges` yields."""
        return self._num_edges

    @property
    def symmetric(self) -> bool:
        """True while only :meth:`add_edge` built this graph, so
        ``d(u -> v) == d(v -> u)`` and one adjacency serves both ways."""
        return self._in is self._adjacency

    def vertices(self) -> range:
        """All vertex ids as a range."""
        return range(len(self._adjacency))

    def neighbors(self, v: int) -> Sequence[tuple[int, float]]:
        """The ``(head, weight)`` pairs of the arcs leaving ``v``."""
        self._check_vertex(v)
        return self._adjacency[v]

    def in_neighbors(self, v: int) -> Sequence[tuple[int, float]]:
        """The ``(tail, weight)`` pairs of the arcs entering ``v``
        (the very list :meth:`neighbors` returns on a symmetric graph)."""
        self._check_vertex(v)
        return self._in[v]

    def degree(self, v: int) -> int:
        """Number of arcs leaving ``v``."""
        self._check_vertex(v)
        return len(self._adjacency[v])

    def edge_weight(self, u: int, v: int) -> float | None:
        """Weight of the arc ``u -> v``, or ``None`` if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        for neighbor, weight in self._adjacency[u]:
            if neighbor == v:
                return weight
        return None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``u -> v`` exists."""
        return self.edge_weight(u, v) is not None

    def coordinates(self, v: int) -> tuple[float, float]:
        """Planar coordinates of vertex ``v``."""
        self._check_vertex(v)
        return self._coordinates[v]

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate ``(u, v, weight)``: each edge of a symmetric graph
        once with ``u < v``, otherwise every arc ``u -> v``."""
        every_arc = not self.symmetric
        for u, adjacency in enumerate(self._adjacency):
            for v, weight in adjacency:
                if every_arc or u < v:
                    yield u, v, weight

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box of all coordinates: (minx, miny, maxx, maxy)."""
        xs = [x for x, _ in self._coordinates]
        ys = [y for _, y in self._coordinates]
        return min(xs), min(ys), max(xs), max(ys)

    def is_connected(self) -> bool:
        """Whether every vertex is reachable from vertex 0."""
        return len(self.component_of(0)) == self.num_vertices

    def component_of(self, start: int) -> set[int]:
        """Vertices reachable from ``start`` along arcs (iterative DFS)."""
        self._check_vertex(start)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _ in self._adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def subgraph_adjacency(
        self, vertices: Iterable[int]
    ) -> dict[int, list[tuple[int, float]]]:
        """Adjacency restricted to ``vertices`` (used by G-tree partitioning)."""
        keep = set(vertices)
        return {
            u: [(v, w) for v, w in self._adjacency[u] if v in keep] for u in keep
        }

    def csr(self) -> CSRGraph:
        """The cached flat-array (CSR) view of this graph.

        Stores the arcs leaving each vertex, so searches over it compute
        ``d(source -> .)``.  Built lazily on first use and invalidated by
        every mutation (:meth:`add_edge`, :meth:`add_arc`, weight
        replacement), so a returned view is a consistent immutable
        snapshot.  Anything keyed on the view's object identity
        (workspace SSSP memos) is therefore invalidated for free when
        the graph changes.
        """
        if self._csr is None:
            from repro.kernels.csr import CSRGraph

            self._csr = CSRGraph.from_arcs(self.num_vertices, self.neighbors)
        return self._csr

    def csr_in(self) -> CSRGraph:
        """The cached CSR view over entering arcs: a search over it from
        ``t`` computes ``d(. -> t)``.  On a symmetric graph this is the
        object :meth:`csr` returns, so nothing is built or held twice
        and workspace memos keyed on the view keep hitting."""
        if self.symmetric:
            return self.csr()
        if self._csr_in is None:
            from repro.kernels.csr import CSRGraph

            self._csr_in = CSRGraph.from_arcs(self.num_vertices, self.in_neighbors)
        return self._csr_in

    def _require_symmetric(self, who: str) -> None:
        """Refuse to build ``who``, an index of symmetric distances, over
        one-way streets (it would answer ``d(v -> u)`` for ``d(u -> v)``)."""
        if not self.symmetric:
            raise RoadNetworkError(
                f"{who} needs a symmetric road network; this one has one-way "
                "arcs (add_arc)"
            )

    # The CSR caches are derived data: exclude them from pickles so worker
    # snapshots stay small and each process rebuilds (or pre-warms via
    # ``repro.kernels.warm``) its own view.
    def __getstate__(self) -> dict[str, object]:
        return {
            "adjacency": self._adjacency,
            # Pickle memoises by identity, so a symmetric graph stores
            # this once and comes back with the alias intact.
            "in_adjacency": self._in,
            "coordinates": self._coordinates,
            "num_edges": self._num_edges,
        }

    def __setstate__(self, state: dict[str, object]) -> None:
        self._adjacency = state["adjacency"]  # type: ignore[assignment]
        self._in = state["in_adjacency"]  # type: ignore[assignment]
        self._coordinates = state["coordinates"]  # type: ignore[assignment]
        self._num_edges = int(state["num_edges"])  # type: ignore[arg-type]
        self._csr = self._csr_in = None

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of the graph structure.

        Counts adjacency tuples and coordinate pairs with CPython object
        sizes; used for the "Input" rows of the index-size experiments.
        """
        per_entry = 72  # tuple(2) + float + int boxes, empirical CPython cost
        arcs = sum(len(a) for a in self._adjacency)
        adjacency = (arcs if self.symmetric else 2 * arcs) * per_entry
        coordinates = len(self._coordinates) * per_entry
        return adjacency + coordinates

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._adjacency):
            raise RoadNetworkError(
                f"vertex {v} out of range [0, {len(self._adjacency)})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoadNetwork(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
