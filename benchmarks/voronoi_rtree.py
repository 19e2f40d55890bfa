"""STR-bulk-loaded R-tree over Voronoi cell MBRs (paper §6.1).

The paper contrasts two containers for approximate NVDs: quadtrees (the
chosen one, with the ρ candidate guarantee) and R-trees, which bound
worst-case space at ``O(|inv(t)|)`` — one MBR per Voronoi cell — but
cannot cap how many MBRs overlap a query point.  This module implements
the R-tree variant for the Figure 6(c) size comparison
(``bench_fig6_rho.py``) and for the test demonstrating the missing ρ
guarantee; nothing in ``src/`` uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle."""

    minx: float
    miny: float
    maxx: float
    maxy: float

    def contains_point(self, x: float, y: float) -> bool:
        return self.minx <= x <= self.maxx and self.miny <= y <= self.maxy

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.minx, other.minx),
            min(self.miny, other.miny),
            max(self.maxx, other.maxx),
            max(self.maxy, other.maxy),
        )


@dataclass
class _Node:
    rect: Rect
    children: list["_Node"]  # empty for leaves
    entries: list[tuple[Rect, int]]  # (mbr, object id); empty for internal


def bounding_rect(points: list[tuple[float, float]]) -> Rect:
    """MBR of a non-empty point set."""
    if not points:
        raise ValueError("cannot bound an empty point set")
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    return Rect(min(xs), min(ys), max(xs), max(ys))


class VoronoiRTree:
    """R-tree of ``(cell MBR, object)`` entries, STR bulk-loaded.

    Parameters
    ----------
    entries:
        One ``(Rect, object_id)`` per Voronoi cell.
    node_capacity:
        Max entries or children per node.
    """

    def __init__(self, entries: list[tuple[Rect, int]], node_capacity: int = 8) -> None:
        if not entries:
            raise ValueError("an R-tree needs at least one entry")
        if node_capacity < 2:
            raise ValueError("node capacity must be at least 2")
        self.node_capacity = node_capacity
        self.num_entries = len(entries)
        leaves = self._str_pack_leaves(entries)
        self.root = self._build_upward(leaves)

    # ------------------------------------------------------------------
    # Sort-Tile-Recursive bulk loading
    # ------------------------------------------------------------------
    def _str_pack_leaves(self, entries: list[tuple[Rect, int]]) -> list[_Node]:
        capacity = self.node_capacity
        ordered = sorted(entries, key=lambda e: (e[0].minx + e[0].maxx))
        num_slices = max(1, math.ceil(math.sqrt(math.ceil(len(ordered) / capacity))))
        slice_size = math.ceil(len(ordered) / num_slices)
        leaves: list[_Node] = []
        for i in range(0, len(ordered), slice_size):
            vertical = sorted(
                ordered[i : i + slice_size], key=lambda e: (e[0].miny + e[0].maxy)
            )
            for j in range(0, len(vertical), capacity):
                chunk = vertical[j : j + capacity]
                rect = chunk[0][0]
                for r, _ in chunk[1:]:
                    rect = rect.union(r)
                leaves.append(_Node(rect=rect, children=[], entries=chunk))
        return leaves

    def _build_upward(self, nodes: list[_Node]) -> _Node:
        while len(nodes) > 1:
            capacity = self.node_capacity
            ordered = sorted(nodes, key=lambda n: (n.rect.minx + n.rect.maxx))
            parents: list[_Node] = []
            for i in range(0, len(ordered), capacity):
                chunk = ordered[i : i + capacity]
                rect = chunk[0].rect
                for child in chunk[1:]:
                    rect = rect.union(child.rect)
                parents.append(_Node(rect=rect, children=chunk, entries=[]))
            nodes = parents
        return nodes[0]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def stabbing_query(self, x: float, y: float) -> list[int]:
        """All objects whose cell MBR contains the point.

        Unlike the quadtree, the result size is unbounded — this is the
        missing ρ guarantee the paper notes for R-trees.
        """
        results: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.rect.contains_point(x, y):
                continue
            if node.children:
                stack.extend(node.children)
            else:
                results.extend(
                    obj for rect, obj in node.entries if rect.contains_point(x, y)
                )
        return sorted(set(results))

    def memory_bytes(self) -> int:
        """Footprint: 4 floats + id per entry, 4 floats per directory node."""
        per_rect = 40
        nodes = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes += 1
            stack.extend(node.children)
        return self.num_entries * (per_rect + 8) + nodes * per_rect
