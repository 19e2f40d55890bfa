"""Tests for the ALT-A* oracle and edge-located POI support."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query
from repro.distance import AStarOracle, DijkstraOracle, verify_oracle
from repro.graph import (
    EdgePlacement,
    RoadNetwork,
    RoadNetworkError,
    dijkstra_all,
    dijkstra_distance,
    perturbed_grid_network,
    subdivide_for_pois,
)
from repro.lowerbound import AltLowerBounder, ZeroLowerBounder


@pytest.fixture(scope="module")
def grid():
    return perturbed_grid_network(8, 8, seed=77)


class TestAStarOracle:
    def test_exact_on_grid(self, grid):
        oracle = AStarOracle(grid, AltLowerBounder(grid, num_landmarks=8))
        rng = random.Random(1)
        pairs = [
            (rng.randrange(grid.num_vertices), rng.randrange(grid.num_vertices))
            for _ in range(40)
        ]
        verify_oracle(oracle, grid, pairs)

    def test_self_distance(self, grid):
        oracle = AStarOracle(grid)
        assert oracle.distance(3, 3) == 0.0

    def test_disconnected_is_infinite(self):
        g = RoadNetwork(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        oracle = AStarOracle(g, ZeroLowerBounder())
        assert oracle.distance(0, 3) == float("inf")

    def test_goal_direction_settles_fewer_vertices(self, grid):
        """The whole point of ALT-A*: fewer settled vertices than the
        zero-potential search (which is plain Dijkstra)."""
        guided = AStarOracle(grid, AltLowerBounder(grid, num_landmarks=12))
        blind = AStarOracle(grid, ZeroLowerBounder())
        rng = random.Random(2)
        guided_total, blind_total = 0, 0
        for _ in range(25):
            s = rng.randrange(grid.num_vertices)
            t = rng.randrange(grid.num_vertices)
            guided.distance(s, t)
            guided_total += guided.last_settled
            blind.distance(s, t)
            blind_total += blind.last_settled
        assert guided_total < blind_total

    def test_memory_is_landmark_tables(self, grid):
        alt = AltLowerBounder(grid, num_landmarks=4)
        oracle = AStarOracle(grid, alt)
        assert oracle.memory_bytes() == alt.memory_bytes()

    def test_works_inside_kspin(self, grid):
        """The framework's flexibility claim extends to ALT-A*."""
        from repro.core import KSpin, brute_force_bknn, results_equivalent

        from tests.test_kspin_queries import make_dataset, popular_keywords

        dataset = make_dataset(grid, seed=77, object_fraction=0.3, vocabulary=10)
        alt = AltLowerBounder(grid, num_landmarks=8)
        kspin = KSpin(
            grid, dataset, oracle=AStarOracle(grid, alt), lower_bounder=alt
        )
        keywords = popular_keywords(dataset, 2)
        expected = brute_force_bknn(grid, dataset, 0, 5, keywords)
        assert results_equivalent(kspin.execute(Query(0, keywords, k=5)).pairs(), expected)


class TestEdgePlacements:
    def test_placement_validation(self):
        with pytest.raises(ValueError):
            EdgePlacement(0, 1, 0.0)
        with pytest.raises(ValueError):
            EdgePlacement(0, 1, 1.0)
        with pytest.raises(ValueError):
            EdgePlacement(2, 2, 0.5)

    def test_missing_edge_rejected(self, grid):
        far_apart = EdgePlacement(0, grid.num_vertices - 1, 0.5)
        with pytest.raises(RoadNetworkError):
            subdivide_for_pois(grid, [far_apart])

    def test_single_split_preserves_distances(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 4.0)
        g.add_edge(1, 2, 2.0)
        g.set_coordinates(0, 0, 0)
        g.set_coordinates(1, 4, 0)
        new, pois = subdivide_for_pois(g, [EdgePlacement(0, 1, 0.25)])
        poi = pois[0]
        assert new.num_vertices == 4
        assert dijkstra_distance(new, 0, poi) == pytest.approx(1.0)
        assert dijkstra_distance(new, poi, 1) == pytest.approx(3.0)
        assert dijkstra_distance(new, 0, 2) == pytest.approx(6.0)  # unchanged
        x, y = new.coordinates(poi)
        assert (x, y) == pytest.approx((1.0, 0.0))

    def test_orientation_normalised(self):
        g = RoadNetwork(2)
        g.add_edge(0, 1, 10.0)
        new, pois = subdivide_for_pois(g, [EdgePlacement(1, 0, 0.3)])
        # 30% of the way from 1 towards 0.
        assert dijkstra_distance(new, 1, pois[0]) == pytest.approx(3.0)
        assert dijkstra_distance(new, 0, pois[0]) == pytest.approx(7.0)

    def test_multiple_pois_one_edge(self):
        g = RoadNetwork(2)
        g.add_edge(0, 1, 10.0)
        new, pois = subdivide_for_pois(
            g, [EdgePlacement(0, 1, 0.8), EdgePlacement(0, 1, 0.2)]
        )
        assert dijkstra_distance(new, 0, pois[1]) == pytest.approx(2.0)
        assert dijkstra_distance(new, 0, pois[0]) == pytest.approx(8.0)
        assert dijkstra_distance(new, pois[1], pois[0]) == pytest.approx(6.0)

    def test_coincident_placements_rejected(self):
        g = RoadNetwork(2)
        g.add_edge(0, 1, 10.0)
        with pytest.raises(ValueError):
            subdivide_for_pois(
                g, [EdgePlacement(0, 1, 0.5), EdgePlacement(0, 1, 0.5)]
            )

    def test_distances_between_old_vertices_unchanged(self, grid):
        edges = list(grid.edges())[:5]
        placements = [EdgePlacement(u, v, 0.5) for u, v, _ in edges]
        new, _ = subdivide_for_pois(grid, placements)
        before = dijkstra_all(grid, 0)
        after = dijkstra_all(new, 0)
        for v in grid.vertices():
            assert after[v] == pytest.approx(before[v])

    def test_end_to_end_with_kspin(self, grid):
        """An edge POI becomes a first-class K-SPIN object."""
        from repro.core import KSpin
        from repro.text import KeywordDataset

        u, v, _ = next(iter(grid.edges()))
        new, pois = subdivide_for_pois(grid, [EdgePlacement(u, v, 0.5)])
        dataset = KeywordDataset({pois[0]: ["mid-edge-cafe"]})
        kspin = KSpin(
            new,
            dataset,
            oracle=DijkstraOracle(new),
            lower_bounder=AltLowerBounder(new, num_landmarks=4),
        )
        result = kspin.execute(Query(u, ["mid-edge-cafe"], k=1)).pairs()
        assert result[0][0] == pois[0]
        assert result[0][1] > 0.0


@given(
    seed=st.integers(min_value=0, max_value=10**5),
    fraction=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=25, deadline=None)
def test_subdivision_preserves_metric_property(seed, fraction):
    g = perturbed_grid_network(4, 4, seed=seed % 7)
    u, v, weight = list(g.edges())[seed % g.num_edges]
    new, pois = subdivide_for_pois(g, [EdgePlacement(u, v, fraction)])
    poi = pois[0]
    du = dijkstra_distance(new, u, poi)
    dv = dijkstra_distance(new, poi, v)
    # The two half-edges sum to at most the original weight (shortcuts
    # may be shorter than going through the POI, never longer).
    assert du + dv <= weight + 1e-9
    assert du <= fraction * weight + 1e-9
    assert dv <= (1 - fraction) * weight + 1e-9
