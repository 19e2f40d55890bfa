"""Tests for top-k over boolean CNF filters."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query
from repro.core import (
    BooleanExpression,
    KSpin,
    brute_force_boolean_top_k,
    results_equivalent,
)
from repro.distance import DijkstraOracle
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture(scope="module")
def world():
    grid = perturbed_grid_network(8, 8, seed=61)
    dataset = make_dataset(grid, seed=61, object_fraction=0.35, vocabulary=12)
    kspin = KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=8),
        rho=3,
    )
    return grid, dataset, kspin


class TestBooleanTopK:
    def test_matches_brute_force(self, world):
        grid, dataset, kspin = world
        popular = popular_keywords(dataset, 3)
        groups = [[popular[0]], [popular[1], popular[2]]]
        expression = BooleanExpression(groups)
        rng = random.Random(1)
        for _ in range(10):
            q = rng.randrange(grid.num_vertices)
            expected = brute_force_boolean_top_k(
                grid, dataset, kspin.relevance, q, 5, expression
            )
            actual = kspin.boolean_top_k(q, 5, groups)
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_single_group_is_plain_top_k_over_matchers(self, world):
        """With one disjunctive group, results match plain top-k restricted
        to the same keyword set (every scored object matches the filter)."""
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(2)
        for _ in range(6):
            q = rng.randrange(grid.num_vertices)
            filtered = kspin.boolean_top_k(q, 5, [keywords])
            plain = kspin.execute(Query(q, keywords, k=5, kind="topk")).pairs()
            assert results_equivalent(filtered, plain)

    def test_unsatisfiable_filter_empty(self, world):
        _, dataset, kspin = world
        keyword = popular_keywords(dataset, 1)[0]
        assert kspin.boolean_top_k(0, 3, [[keyword], ["nope"]]) == []

    def test_all_results_satisfy_filter(self, world):
        _, dataset, kspin = world
        popular = popular_keywords(dataset, 3)
        groups = [[popular[0]], [popular[1], popular[2]]]
        result = kspin.boolean_top_k(0, 10, groups)
        for obj, _ in result:
            assert dataset.contains(obj, popular[0])
            assert dataset.contains_any(obj, popular[1:])

    def test_scores_sorted(self, world):
        _, dataset, kspin = world
        popular = popular_keywords(dataset, 2)
        result = kspin.boolean_top_k(0, 10, [[popular[0]], [popular[1]]])
        scores = [s for _, s in result]
        assert scores == sorted(scores)

    def test_validation(self, world):
        _, _, kspin = world
        with pytest.raises(ValueError):
            kspin.boolean_top_k(0, 0, [["a"]])
        with pytest.raises(ValueError):
            kspin.boolean_top_k(0, 3, [])


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_boolean_top_k_property(seed):
    grid = perturbed_grid_network(5, 5, seed=seed % 9)
    dataset = make_dataset(grid, seed=seed, object_fraction=0.4, vocabulary=6)
    kspin = KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=4, seed=seed),
        rho=3,
    )
    rng = random.Random(seed)
    groups = [
        [f"kw{rng.randrange(6)}" for _ in range(rng.randint(1, 2))]
        for _ in range(rng.randint(1, 2))
    ]
    expression = BooleanExpression(groups)
    q = rng.randrange(grid.num_vertices)
    expected = brute_force_boolean_top_k(
        grid, dataset, kspin.relevance, q, 4, expression
    )
    actual = kspin.boolean_top_k(q, 4, groups)
    assert results_equivalent(actual, expected), (groups, actual, expected)
