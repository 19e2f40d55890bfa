"""Tests for the Figure 6(c) R-tree container (``voronoi_rtree``)."""

import random

import pytest

from repro.graph import perturbed_grid_network
from repro.nvd import NetworkVoronoiDiagram

from voronoi_rtree import Rect, VoronoiRTree, bounding_rect


@pytest.fixture(scope="module")
def grid():
    return perturbed_grid_network(8, 8, seed=7)


@pytest.fixture(scope="module")
def objects(grid):
    rng = random.Random(5)
    return sorted(rng.sample(range(grid.num_vertices), 10))


class TestVoronoiRTree:
    def test_validation(self):
        with pytest.raises(ValueError):
            VoronoiRTree([])
        with pytest.raises(ValueError):
            VoronoiRTree([(Rect(0, 0, 1, 1), 1)], node_capacity=1)

    def test_bounding_rect(self):
        rect = bounding_rect([(0, 1), (2, -1), (1, 3)])
        assert rect == Rect(0, -1, 2, 3)
        with pytest.raises(ValueError):
            bounding_rect([])

    def test_stabbing_finds_containing_cells(self, grid, objects):
        nvd = NetworkVoronoiDiagram(grid, objects)
        entries = []
        for o in objects:
            points = [grid.coordinates(v) for v in nvd.cell(o)]
            entries.append((bounding_rect(points), o))
        tree = VoronoiRTree(entries)
        for v in grid.vertices():
            x, y = grid.coordinates(v)
            hits = tree.stabbing_query(x, y)
            assert nvd.owner(v) in hits

    def test_no_rho_guarantee(self):
        """Overlapping MBRs can exceed any candidate cap (paper §6.1)."""
        overlapping = [(Rect(0, 0, 10, 10), i) for i in range(9)]
        tree = VoronoiRTree(overlapping)
        assert len(tree.stabbing_query(5, 5)) == 9

    def test_memory_linear_in_entries(self):
        small = VoronoiRTree([(Rect(i, i, i + 1, i + 1), i) for i in range(8)])
        large = VoronoiRTree([(Rect(i, i, i + 1, i + 1), i) for i in range(80)])
        assert large.memory_bytes() > small.memory_bytes()
        assert large.memory_bytes() < 25 * small.memory_bytes()

    def test_miss_returns_empty(self):
        tree = VoronoiRTree([(Rect(0, 0, 1, 1), 1)])
        assert tree.stabbing_query(5, 5) == []
