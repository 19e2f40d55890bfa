"""G-tree: hierarchical graph partitioning index (Zhong et al., TKDE 2015).

G-tree recursively partitions the road network into a tree of subgraphs.
Each tree node stores a *distance matrix*: leaves store border-to-vertex
distances inside the leaf subgraph; internal nodes store distances among
the borders of their children.  A point-to-point query assembles the
distance by "hopping" along border sets up the tree — the repeated
look-up-and-sum steps are the *matrix operations* the paper counts in
Figure 16.

This implementation makes every internal matrix **globally exact** with a
top-down correction pass after the usual bottom-up build (the root's
subgraph is the whole graph, so its matrix is global; each child's matrix
is then relaxed through its parent's).  This keeps query assembly simple
and provably exact regardless of partition quality.

The index also exposes the machinery the spatial-keyword baselines need:
per-query border-distance materialisation (reused across distance
computations, the paper's "materialization"), a matrix-operation counter,
and tree traversal helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.distance.base import DistanceOracle
from repro.graph.dijkstra import dijkstra_within
from repro.graph.road_network import RoadNetwork

INFINITY = math.inf


@dataclass
class GTreeNode:
    """One node of the G-tree hierarchy."""

    index: int
    parent: int  # -1 for the root
    depth: int
    vertices: list[int]  # all vertices of the subgraph (leaves keep these)
    children: list[int] = field(default_factory=list)
    borders: list[int] = field(default_factory=list)
    #: leaf: rows = borders, cols = leaf vertices (inside-leaf distances).
    #: internal: square over `matrix_vertices` (global distances after
    #: correction).  Stored as a float64 numpy array so the min-plus
    #: assembly steps vectorise.
    matrix: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    matrix_vertices: list[int] = field(default_factory=list)
    matrix_position: dict[int, int] = field(default_factory=dict)
    leaf_position: dict[int, int] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class GTree(DistanceOracle):
    """G-tree distance oracle with geometric recursive partitioning.

    Parameters
    ----------
    graph:
        Road network to index.
    fanout:
        Children per internal node (paper default 4).
    leaf_size:
        Maximum vertices per leaf subgraph (paper's tau).

    Notes
    -----
    ``matrix_operations`` counts every matrix look-up-and-sum performed
    during distance assembly, reproducing the machine-independent cost
    metric of the paper's Figure 16.
    """

    name = "G-tree"

    def __init__(self, graph: RoadNetwork, fanout: int = 4, leaf_size: int = 32) -> None:
        super().__init__()
        graph._require_symmetric(type(self).__name__)
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if leaf_size < 2:
            raise ValueError("leaf_size must be at least 2")
        self._graph = graph
        self._fanout = fanout
        self._leaf_size = leaf_size
        self.nodes: list[GTreeNode] = []
        self.leaf_of: list[int] = [-1] * graph.num_vertices
        self.matrix_operations = 0
        # Per-query materialisation: (source, node_index) -> distances to
        # node borders, reused across assemblies for the same source.
        self._border_cache: dict[tuple[int, int], list[float]] = {}
        self._build_tree()
        self._compute_borders()
        self._build_matrices()
        self._globalize_matrices()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_tree(self) -> None:
        root = GTreeNode(
            index=0, parent=-1, depth=0, vertices=list(self._graph.vertices())
        )
        self.nodes.append(root)
        pending = [0]
        while pending:
            node_index = pending.pop()
            node = self.nodes[node_index]
            if len(node.vertices) <= self._leaf_size:
                for position, v in enumerate(node.vertices):
                    self.leaf_of[v] = node_index
                    node.leaf_position[v] = position
                continue
            for part in self._partition(node.vertices, self._fanout):
                child = GTreeNode(
                    index=len(self.nodes),
                    parent=node_index,
                    depth=node.depth + 1,
                    vertices=part,
                )
                self.nodes.append(child)
                node.children.append(child.index)
                pending.append(child.index)

    def _partition(self, vertices: list[int], parts: int) -> list[list[int]]:
        """Split vertices into ``parts`` balanced groups by alternating
        geometric median cuts (good cuts on near-planar road networks)."""
        groups = [vertices]
        axis = 0
        while len(groups) < parts:
            groups.sort(key=len, reverse=True)
            biggest = groups.pop(0)
            coordinates = self._graph.coordinates
            biggest.sort(key=lambda v: coordinates(v)[axis])
            middle = len(biggest) // 2
            left, right = biggest[:middle], biggest[middle:]
            if not left or not right:  # pragma: no cover - degenerate split
                groups.append(biggest)
                break
            groups.extend([left, right])
            axis = 1 - axis
        return [g for g in groups if g]

    def _compute_borders(self) -> None:
        neighbors = self._graph.neighbors
        for node in self.nodes:
            if node.index == 0:
                continue  # the root has no outside, hence no borders
            inside = set(node.vertices)
            node.borders = [
                v
                for v in node.vertices
                if any(u not in inside for u, _ in neighbors(v))
            ]

    def _build_matrices(self) -> None:
        """Bottom-up matrices: distances within each node's subgraph."""
        for node in sorted(self.nodes, key=lambda n: -n.depth):
            if node.is_leaf:
                self._build_leaf_matrix(node)
            else:
                self._build_internal_matrix(node)

    def _build_leaf_matrix(self, node: GTreeNode) -> None:
        adjacency = self._graph.subgraph_adjacency(node.vertices)
        rows = []
        for border in node.borders:
            distances = dijkstra_within(adjacency, border)
            rows.append([distances.get(v, INFINITY) for v in node.vertices])
        node.matrix = np.array(rows, dtype=np.float64).reshape(
            len(node.borders), len(node.vertices)
        )

    def _build_internal_matrix(self, node: GTreeNode) -> None:
        """Distances among children borders, within this node's subgraph.

        Runs Dijkstra over the *border graph*: children borders linked by
        (a) each child's internal border-to-border distances and (b) the
        original edges that cross between children.
        """
        union_borders: list[int] = []
        for child_index in node.children:
            for b in self.nodes[child_index].borders:
                union_borders.append(b)
        union_borders = sorted(set(union_borders))
        position = {b: i for i, b in enumerate(union_borders)}
        adjacency: dict[int, list[tuple[int, float]]] = {
            b: [] for b in union_borders
        }
        for child_index in node.children:
            child = self.nodes[child_index]
            for i, b1 in enumerate(child.borders):
                for b2 in child.borders[i + 1 :]:
                    weight = self._within_child_distance(child, b1, b2)
                    if weight < INFINITY:
                        adjacency[b1].append((b2, weight))
                        adjacency[b2].append((b1, weight))
        child_of = {
            v: c for c in node.children for v in self.nodes[c].vertices
        }
        inside = set(child_of)
        for b in union_borders:
            for u, weight in self._graph.neighbors(b):
                if u in inside and child_of[u] != child_of[b]:
                    adjacency[b].append((u, weight))
        node.matrix_vertices = union_borders
        node.matrix_position = position
        rows = []
        for b in union_borders:
            distances = dijkstra_within(adjacency, b)
            rows.append([distances.get(x, INFINITY) for x in union_borders])
        node.matrix = np.array(rows, dtype=np.float64).reshape(
            len(union_borders), len(union_borders)
        )

    def _within_child_distance(self, child: GTreeNode, b1: int, b2: int) -> float:
        if child.is_leaf:
            row = child.borders.index(b1)
            return float(child.matrix[row, child.leaf_position[b2]])
        return float(
            child.matrix[child.matrix_position[b1], child.matrix_position[b2]]
        )

    def _globalize_matrices(self) -> None:
        """Top-down pass making every internal matrix globally exact.

        The root matrix is global already (its subgraph is the whole
        graph).  For any other internal node n with parent p, a global
        path between two of n's matrix vertices either stays inside n
        (covered by the bottom-up matrix) or leaves and re-enters through
        borders of n; the outside part is covered by p's already-global
        matrix.
        """
        for node in sorted(self.nodes, key=lambda n: n.depth):
            if node.is_leaf or node.parent < 0:
                continue
            parent = self.nodes[node.parent]
            own_borders = [
                b for b in node.borders if b in node.matrix_position
            ]
            if not own_borders:
                continue
            border_positions = [node.matrix_position[b] for b in own_borders]
            parent_positions = [parent.matrix_position[b] for b in own_borders]
            # through[i, j]: best distance from matrix vertex i out to
            # border j of n, using the parent's (already global) matrix:
            # min-plus product of M[:, borders] with P[borders, borders].
            to_borders = node.matrix[:, border_positions]  # (size, b)
            parent_sub = parent.matrix[np.ix_(parent_positions, parent_positions)]
            through = np.min(
                to_borders[:, :, None] + parent_sub[None, :, :], axis=1
            )  # (size, b)
            # corrected[i, j] = min(M[i, j], min_y through[i, y] + M[y, j]).
            from_borders = node.matrix[border_positions, :]  # (b, size)
            detour = np.min(
                through[:, :, None] + from_borders[None, :, :], axis=1
            )  # (size, size)
            np.minimum(node.matrix, detour, out=node.matrix)

    # ------------------------------------------------------------------
    # Query assembly
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Exact network distance assembled through the hierarchy."""
        self.query_count += 1
        if source == target:
            return 0.0
        source_leaf = self.leaf_of[source]
        target_leaf = self.leaf_of[target]
        if source_leaf == target_leaf:
            return self._same_leaf_distance(source, target)
        lca = self._lowest_common_ancestor(source_leaf, target_leaf)
        lca_node = self.nodes[lca]
        source_child = self._child_toward(lca, source_leaf)
        target_child = self._child_toward(lca, target_leaf)
        d_source = self.distances_to_borders(source, source_child)
        d_target = self.distances_to_borders(target, target_child)
        source_borders = self.nodes[source_child].borders
        target_borders = self.nodes[target_child].borders
        if not source_borders or not target_borders:
            return INFINITY
        rows = [lca_node.matrix_position[b] for b in source_borders]
        cols = [lca_node.matrix_position[b] for b in target_borders]
        crossing = lca_node.matrix[np.ix_(rows, cols)]
        self.matrix_operations += crossing.size
        best = np.min(
            np.asarray(d_source)[:, None] + crossing + np.asarray(d_target)[None, :]
        )
        return float(best)

    def _same_leaf_distance(self, source: int, target: int) -> float:
        leaf = self.nodes[self.leaf_of[source]]
        adjacency = self._graph.subgraph_adjacency(leaf.vertices)
        inside = dijkstra_within(adjacency, source).get(target, INFINITY)
        if not leaf.borders:
            return inside
        parent = self.nodes[leaf.parent]
        positions = [parent.matrix_position[b] for b in leaf.borders]
        crossing = parent.matrix[np.ix_(positions, positions)]
        from_source = leaf.matrix[:, leaf.leaf_position[source]]
        to_target = leaf.matrix[:, leaf.leaf_position[target]]
        self.matrix_operations += 2 * crossing.size
        detour = np.min(from_source[:, None] + crossing + to_target[None, :])
        return float(min(inside, detour))

    def distances_to_borders(self, source: int, node_index: int) -> list[float]:
        """Global distances from ``source`` to the borders of a tree node.

        Results are memoised per ``(source, node)`` — the G-tree paper's
        *materialization* — so kNN traversals and repeated point-to-point
        queries from the same vertex reuse partial work.  Call
        :meth:`clear_cache` between workloads.
        """
        cached = self._border_cache.get((source, node_index))
        if cached is not None:
            return cached
        node = self.nodes[node_index]
        leaf_index = self.leaf_of[source]
        if node_index == leaf_index:
            result = self._leaf_border_distances(source)
        else:
            # Ascend: distances to the child-on-the-path's borders, then
            # relax through this node's global matrix.
            child_index = self._child_toward(node_index, leaf_index)
            child_distances = self.distances_to_borders(source, child_index)
            child_borders = self.nodes[child_index].borders
            if not child_borders or not node.borders:
                result = [INFINITY] * len(node.borders)
            else:
                rows = [node.matrix_position[b] for b in child_borders]
                cols = [node.matrix_position[b] for b in node.borders]
                crossing = node.matrix[np.ix_(rows, cols)]
                self.matrix_operations += crossing.size
                result = list(
                    np.min(np.asarray(child_distances)[:, None] + crossing, axis=0)
                )
        self._border_cache[(source, node_index)] = result
        return result

    def _leaf_border_distances(self, source: int) -> list[float]:
        """Global distances from ``source`` to its own leaf's borders."""
        leaf = self.nodes[self.leaf_of[source]]
        if not leaf.borders:
            return []
        parent = self.nodes[leaf.parent]
        inside = leaf.matrix[:, leaf.leaf_position[source]]
        positions = [parent.matrix_position[b] for b in leaf.borders]
        crossing = parent.matrix[np.ix_(positions, positions)]
        self.matrix_operations += crossing.size
        best = np.minimum(inside, np.min(inside[:, None] + crossing, axis=0))
        return list(best)

    def min_distance_to_node(self, source: int, node_index: int) -> float:
        """Lower bound used by hierarchy traversals: min distance from
        ``source`` to any border of the node (0 if source inside)."""
        if self.leaf_of[source] == node_index or self._contains(node_index, source):
            return 0.0
        distances = self.border_distances_any(source, node_index)
        return float(min(distances)) if distances else INFINITY

    def border_distances_any(self, source: int, node_index: int) -> list[float]:
        """Global distances from ``source`` to any node's borders.

        Generalises :meth:`distances_to_borders` (which requires the node
        to be an ancestor of the source's leaf) to arbitrary nodes, with
        the same per-source memoisation — this is what makes repeated
        ``min_distance_to_node`` calls during a kNN traversal cheap.
        """
        if self._contains(node_index, source):
            return self.distances_to_borders(source, node_index)
        cached = self._border_cache.get((source, node_index))
        if cached is not None:
            return cached
        node = self.nodes[node_index]
        parent = self.nodes[node.parent]
        if not node.borders:
            result: list[float] = []
        elif self._contains(parent.index, source):
            # Cross the parent's matrix from the source-side child.
            source_child = self._child_toward(parent.index, self.leaf_of[source])
            incoming = self.distances_to_borders(source, source_child)
            from_borders = self.nodes[source_child].borders
            result = self._relax_through(
                parent, incoming, from_borders, node.borders
            )
        else:
            # Enter the parent through its borders, then cross inside it.
            incoming = self.border_distances_any(source, parent.index)
            result = self._relax_through(
                parent, incoming, parent.borders, node.borders
            )
        self._border_cache[(source, node_index)] = result
        return result

    def _relax_through(
        self,
        node: GTreeNode,
        incoming: list[float],
        from_borders: list[int],
        to_borders: list[int],
    ) -> list[float]:
        """Min-plus step ``out[j] = min_i incoming[i] + M[from_i, to_j]``."""
        if not incoming or not from_borders or not to_borders:
            return [INFINITY] * len(to_borders)
        rows = [node.matrix_position[b] for b in from_borders]
        cols = [node.matrix_position[b] for b in to_borders]
        crossing = node.matrix[np.ix_(rows, cols)]
        self.matrix_operations += crossing.size
        return list(np.min(np.asarray(incoming)[:, None] + crossing, axis=0))

    # ------------------------------------------------------------------
    # Tree helpers
    # ------------------------------------------------------------------
    def _ancestors(self, node_index: int) -> list[int]:
        path = [node_index]
        while self.nodes[path[-1]].parent >= 0:
            path.append(self.nodes[path[-1]].parent)
        return path

    def _lowest_common_ancestor(self, a: int, b: int) -> int:
        ancestors_a = set(self._ancestors(a))
        current = b
        while current not in ancestors_a:
            current = self.nodes[current].parent
        return current

    def _child_toward(self, ancestor: int, descendant: int) -> int:
        """The child of ``ancestor`` on the path to ``descendant``."""
        current = descendant
        while self.nodes[current].parent != ancestor:
            current = self.nodes[current].parent
        return current

    def _contains(self, node_index: int, vertex: int) -> bool:
        current = self.leaf_of[vertex]
        while current >= 0:
            if current == node_index:
                return True
            current = self.nodes[current].parent
        return False

    def leaves(self) -> list[int]:
        """Indices of all leaf nodes."""
        return [n.index for n in self.nodes if n.is_leaf]

    def clear_cache(self) -> None:
        """Drop per-query materialised border distances."""
        self._border_cache.clear()

    def reset_counters(self) -> None:
        super().reset_counters()
        self.matrix_operations = 0

    def memory_bytes(self) -> int:
        per_entry = 8  # float64 numpy entries
        entries = sum(int(node.matrix.size) for node in self.nodes)
        return entries * per_entry + len(self.nodes) * 200
