"""Tests for the §5.1 cost model."""

import pytest

from repro.api import Query
from repro.core import (
    CostModel,
    KSpin,
    fit_cost_model,
    measure_kappa,
    model_accuracy,
)
from repro.core.query_processor import QueryStats
from repro.datasets import WorkloadGenerator
from repro.distance import DijkstraOracle
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder

from tests.test_kspin_queries import make_dataset


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
