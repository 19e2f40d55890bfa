"""Tests for the Lower Bounding Module (ALT)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import RoadNetwork, dijkstra_distance, perturbed_grid_network
from repro.lowerbound import (
    AltLowerBounder,
    LowerBounder,
    ZeroLowerBounder,
)


@pytest.fixture(scope="module")
def grid():
    return perturbed_grid_network(7, 7, seed=13)


class TestAlt:
    def test_admissible_on_grid(self, grid):
        alt = AltLowerBounder(grid, num_landmarks=8)
        rng = random.Random(3)
        for _ in range(60):
            u = rng.randrange(grid.num_vertices)
            v = rng.randrange(grid.num_vertices)
            assert alt.lower_bound(u, v) <= dijkstra_distance(grid, u, v) + 1e-9

    def test_zero_for_same_vertex(self, grid):
        alt = AltLowerBounder(grid, num_landmarks=4)
        assert alt.lower_bound(7, 7) == 0.0

    def test_landmark_distance_is_tight(self, grid):
        alt = AltLowerBounder(grid, num_landmarks=4)
        landmark = alt.landmarks[0]
        for v in list(grid.vertices())[:10]:
            exact = dijkstra_distance(grid, landmark, v)
            assert alt.lower_bound(landmark, v) == pytest.approx(exact)

    def test_more_landmarks_never_looser(self, grid):
        few = AltLowerBounder(grid, num_landmarks=2, seed=5)
        many = AltLowerBounder(grid, num_landmarks=12, seed=5)
        rng = random.Random(9)
        looser = 0
        for _ in range(40):
            u = rng.randrange(grid.num_vertices)
            v = rng.randrange(grid.num_vertices)
            if many.lower_bound(u, v) < few.lower_bound(u, v) - 1e-9:
                looser += 1
        # Farthest-point selection shares the early landmarks, so the
        # 12-landmark bound dominates the 2-landmark bound.
        assert looser == 0

    def test_rejects_zero_landmarks(self, grid):
        with pytest.raises(ValueError):
            AltLowerBounder(grid, num_landmarks=0)

    def test_landmark_count_capped_at_vertices(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        alt = AltLowerBounder(g, num_landmarks=50)
        assert len(alt.landmarks) <= 3

    def test_vectorised_matches_scalar(self, grid):
        alt = AltLowerBounder(grid, num_landmarks=6)
        others = [3, 17, 30, 44]
        bounds = alt.lower_bounds_to_many(8, others)
        for v, bound in zip(others, bounds):
            assert bound == pytest.approx(alt.lower_bound(8, v))

    def test_vectorised_empty(self, grid):
        alt = AltLowerBounder(grid, num_landmarks=2)
        assert alt.lower_bounds_to_many(0, []) == []

    def test_disconnected_graph_degrades_gracefully(self):
        g = RoadNetwork(4)
        g.add_edge(0, 1, 2.0)
        g.add_edge(2, 3, 2.0)
        alt = AltLowerBounder(g, num_landmarks=2)
        # Any finite bound for connected pair, and no crash for the
        # disconnected pair (0 is admissible for d = inf).
        assert alt.lower_bound(0, 1) <= 2.0
        assert alt.lower_bound(0, 2) >= 0.0

    def test_memory_reported(self, grid):
        alt = AltLowerBounder(grid, num_landmarks=4)
        assert alt.memory_bytes() == 4 * grid.num_vertices * 8


class TestZero:
    def test_always_zero(self):
        z = ZeroLowerBounder()
        assert z.lower_bound(0, 99) == 0.0
        assert z.memory_bytes() == 0
        assert isinstance(z, LowerBounder)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_alt_admissible_property(seed):
    g = perturbed_grid_network(5, 5, seed=seed % 100)
    alt = AltLowerBounder(g, num_landmarks=3, seed=seed)
    rng = random.Random(seed)
    u = rng.randrange(g.num_vertices)
    v = rng.randrange(g.num_vertices)
    assert alt.lower_bound(u, v) <= dijkstra_distance(g, u, v) + 1e-9
