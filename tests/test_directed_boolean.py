"""Tests for boolean CNF queries over one-way streets and the XL rung."""

import random

import pytest

from repro.core import BooleanExpression, KSpin, brute_force_boolean_bknn
from repro.distance import DijkstraOracle
from repro.graph import perturbed_grid_network, with_one_way_streets
from repro.lowerbound import AltLowerBounder

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture(scope="module")
def world():
    base = perturbed_grid_network(6, 6, seed=71)
    g = with_one_way_streets(base, fraction=0.4, seed=71)
    dataset = make_dataset(base, seed=71, object_fraction=0.35, vocabulary=8)
    kspin = KSpin(
        g,
        dataset,
        oracle=DijkstraOracle(g),
        lower_bounder=AltLowerBounder(g, num_landmarks=6),
        rho=3,
    )
    return g, dataset, kspin


class TestDirectedBooleanBknn:
    def test_matches_brute_force(self, world):
        g, dataset, kspin = world
        popular = popular_keywords(dataset, 3)
        groups = [[popular[0]], [popular[1], popular[2]]]
        expression = BooleanExpression(groups)
        rng = random.Random(1)
        for _ in range(8):
            q = rng.randrange(g.num_vertices)
            expected = brute_force_boolean_bknn(g, dataset, q, 4, expression)
            actual = kspin.boolean_bknn(q, 4, groups)
            assert [d for _, d in actual] == pytest.approx(
                [d for _, d in expected]
            ), (q, actual, expected)

    def test_results_satisfy_expression(self, world):
        g, dataset, kspin = world
        popular = popular_keywords(dataset, 2)
        groups = [[popular[0]], [popular[1]]]
        for obj, _ in kspin.boolean_bknn(0, 10, groups):
            assert dataset.contains(obj, popular[0])
            assert dataset.contains(obj, popular[1])


class TestXlDataset:
    def test_xl_spec_exists_but_outside_ladder(self):
        from repro.datasets import DATASET_ORDER, DATASET_SPECS

        assert "XL-S" in DATASET_SPECS
        assert "XL-S" not in DATASET_ORDER
        assert DATASET_SPECS["XL-S"].num_vertices > DATASET_SPECS["US-S"].num_vertices

    def test_xl_generates(self):
        from repro.datasets import load_dataset

        dataset = load_dataset("XL-S")
        assert dataset.graph.num_vertices == 110 * 110
        assert dataset.graph.is_connected()
        assert dataset.keywords.num_objects > 900
