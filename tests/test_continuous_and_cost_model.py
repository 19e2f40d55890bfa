"""Tests for continuous route queries and the §5.1 cost model."""

import pytest

from repro.api import Query
from repro.core import (
    CostModel,
    KSpin,
    brute_force_bknn,
    continuous_bknn,
    fit_cost_model,
    measure_kappa,
    model_accuracy,
    route_between,
)
from repro.core.query_processor import QueryStats
from repro.datasets import WorkloadGenerator
from repro.distance import DijkstraOracle
from repro.graph import RoadNetwork, dijkstra_distance, perturbed_grid_network
from repro.lowerbound import AltLowerBounder

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture(scope="module")
def world():
    grid = perturbed_grid_network(8, 8, seed=91)
    dataset = make_dataset(grid, seed=91, object_fraction=0.3, vocabulary=10)
    kspin = KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=8),
        rho=3,
    )
    return grid, dataset, kspin


class TestRouteBetween:
    def test_trivial_route(self, world):
        grid, _, _ = world
        assert route_between(grid, 5, 5) == [5]

    def test_route_is_shortest_path(self, world):
        grid, _, _ = world
        route = route_between(grid, 0, grid.num_vertices - 1)
        assert route[0] == 0
        assert route[-1] == grid.num_vertices - 1
        length = sum(
            grid.edge_weight(a, b) for a, b in zip(route, route[1:])
        )
        assert length == pytest.approx(
            dijkstra_distance(grid, 0, grid.num_vertices - 1)
        )

    def test_consecutive_vertices_adjacent(self, world):
        grid, _, _ = world
        route = route_between(grid, 3, 40)
        for a, b in zip(route, route[1:]):
            assert grid.has_edge(a, b)

    def test_disconnected_raises(self):
        g = RoadNetwork(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        with pytest.raises(ValueError):
            route_between(g, 0, 3)


class TestContinuousBknn:
    def test_segments_cover_route(self, world):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        route = route_between(grid, 0, grid.num_vertices - 1)
        segments = continuous_bknn(kspin, route, 3, keywords)
        covered = [v for segment in segments for v in segment.vertices]
        assert covered == route
        assert segments[0].start_index == 0
        assert segments[-1].end_index == len(route) - 1
        for before, after in zip(segments, segments[1:]):
            assert after.start_index == before.end_index + 1

    def test_segment_results_match_point_queries(self, world):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        route = route_between(grid, 0, grid.num_vertices - 1)
        segments = continuous_bknn(kspin, route, 3, keywords)
        for segment in segments:
            expected = brute_force_bknn(
                grid, dataset, segment.vertices[0], 3, keywords
            )
            assert set(segment.result_objects) == {o for o, _ in expected}

    def test_adjacent_segments_differ(self, world):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        route = route_between(grid, 0, grid.num_vertices - 1)
        segments = continuous_bknn(kspin, route, 3, keywords)
        for before, after in zip(segments, segments[1:]):
            assert set(before.result_objects) != set(after.result_objects)

    def test_single_vertex_route(self, world):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 1)
        segments = continuous_bknn(kspin, [7], 2, keywords)
        assert len(segments) == 1
        assert segments[0].vertices == (7,)

    def test_conjunctive_mode(self, world):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        route = route_between(grid, 0, 20)
        segments = continuous_bknn(kspin, route, 2, keywords, conjunctive=True)
        for segment in segments:
            for obj in segment.result_objects:
                assert dataset.contains_all(obj, keywords)

    def test_validation(self, world):
        _, _, kspin = world
        with pytest.raises(ValueError):
            continuous_bknn(kspin, [], 3, ["a"])
        with pytest.raises(ValueError):
            continuous_bknn(kspin, [0], 0, ["a"])


class TestCostModel:
    def workload(self, world, seed, count):
        grid, dataset, _ = world
        generator = WorkloadGenerator(grid, dataset, seed=seed)
        return generator.queries(2, count, 2)

    def test_kappa_within_paper_bounds(self, world):
        """§5.1: kappa is a small constant multiple of k for BkNN."""
        grid, dataset, kspin = world
        for k in (1, 5, 10):
            report = measure_kappa(
                lambda q: kspin.execute(Query(q.vertex, q.keywords, k=k)),
                lambda: kspin.last_stats,
                self.workload(world, seed=k, count=5),
                k,
            )
            assert report.k == k
            assert report.mean_kappa >= 0
            assert report.max_multiple_of_k <= 6.0  # paper: ~3, slack for scale

    def test_measure_kappa_validation(self, world):
        _, _, kspin = world
        with pytest.raises(ValueError):
            measure_kappa(lambda q: None, lambda: QueryStats(), [], 5)

    def test_fit_produces_nonnegative_constants(self, world):
        _, _, kspin = world
        model = fit_cost_model(kspin, self.workload(world, seed=3, count=8), k=5)
        assert model.heap_unit_seconds >= 0
        assert model.ndist_seconds >= 0
        assert model.overhead_seconds >= 0

    def test_fit_validation(self, world):
        _, _, kspin = world
        with pytest.raises(ValueError):
            fit_cost_model(kspin, self.workload(world, seed=3, count=8)[:2])

    def test_prediction_uses_stats_linearly(self):
        model = CostModel(
            heap_unit_seconds=1e-6, ndist_seconds=1e-4, overhead_seconds=1e-5
        )
        stats = QueryStats(lower_bound_computations=10, distance_computations=3)
        assert model.predict_seconds(stats) == pytest.approx(
            1e-5 + 10e-6 + 3e-4
        )

    def test_model_explains_most_of_the_time(self, world):
        """The fitted 2-term model should predict fresh queries within a
        reasonable relative error — the §5.1 decomposition is real."""
        _, _, kspin = world
        train = self.workload(world, seed=5, count=12)
        test = self.workload(world, seed=6, count=8)
        model = fit_cost_model(kspin, train, k=10)
        error = model_accuracy(model, kspin, test, k=10)
        assert error < 1.5  # mean relative error bounded

    def test_model_accuracy_validation(self, world):
        _, _, kspin = world
        model = CostModel(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            model_accuracy(model, kspin, [])
