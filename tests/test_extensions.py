"""Tests for the paper's optional features: mixed boolean queries,
weighted-sum scoring, and index persistence."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query, UpdateOp
from repro.core import (
    BooleanExpression,
    KSpin,
    brute_force_boolean_bknn,
    results_equivalent,
)
from repro.distance import DijkstraOracle
from repro.graph import dijkstra_all, perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.persist import PersistenceError, load_kspin, save_kspin
from repro.text import weighted_sum_score

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture(scope="module")
def world():
    grid = perturbed_grid_network(8, 8, seed=55)
    dataset = make_dataset(grid, seed=55, object_fraction=0.35, vocabulary=12)
    kspin = KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=8),
        rho=3,
    )
    return grid, dataset, kspin


class TestBooleanExpression:
    def test_validation(self):
        with pytest.raises(ValueError):
            BooleanExpression([])
        with pytest.raises(ValueError):
            BooleanExpression([["a"], []])

    def test_normalises_duplicates(self):
        expression = BooleanExpression([["a", "a", "b"]])
        assert expression.groups == (("a", "b"),)

    def test_factories(self):
        conj = BooleanExpression.conjunction(["a", "b"])
        assert conj.groups == (("a",), ("b",))
        disj = BooleanExpression.disjunction(["a", "b"])
        assert disj.groups == (("a", "b"),)

    def test_matches_semantics(self):
        expression = BooleanExpression([["thai"], ["takeaway", "restaurant"]])
        doc = {"thai", "restaurant"}
        assert expression.matches(doc.__contains__)
        assert not expression.matches({"thai"}.__contains__)
        assert not expression.matches({"takeaway"}.__contains__)

    def test_keywords_and_str(self):
        expression = BooleanExpression([["b"], ["a", "b"]])
        assert expression.keywords() == ("b", "a")
        assert str(expression) == "b AND (a OR b)"


class TestBooleanBknn:
    def test_paper_example_shape(self, world):
        """thai AND (takeaway OR restaurant) — the paper's §2 example."""
        grid, dataset, kspin = world
        popular = popular_keywords(dataset, 3)
        groups = [[popular[0]], [popular[1], popular[2]]]
        expression = BooleanExpression(groups)
        rng = random.Random(1)
        for _ in range(10):
            q = rng.randrange(grid.num_vertices)
            expected = brute_force_boolean_bknn(grid, dataset, q, 5, expression)
            actual = kspin.boolean_bknn(q, 5, groups)
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_reduces_to_conjunctive(self, world):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(2)
        for _ in range(6):
            q = rng.randrange(grid.num_vertices)
            via_cnf = kspin.boolean_bknn(q, 5, [[t] for t in keywords])
            via_bknn = kspin.execute(Query(q, keywords, k=5, mode="and")).pairs()
            assert results_equivalent(via_cnf, via_bknn)

    def test_reduces_to_disjunctive(self, world):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(3)
        for _ in range(6):
            q = rng.randrange(grid.num_vertices)
            via_cnf = kspin.boolean_bknn(q, 5, [keywords])
            via_bknn = kspin.execute(Query(q, keywords, k=5)).pairs()
            assert results_equivalent(via_cnf, via_bknn)

    def test_unsatisfiable_clause_empty(self, world):
        _, dataset, kspin = world
        keyword = popular_keywords(dataset, 1)[0]
        assert kspin.boolean_bknn(0, 3, [[keyword], ["no-such-kw"]]) == []

    def test_scans_cheapest_group(self, world):
        """The scanned group is the one with the fewest candidates."""
        grid, dataset, kspin = world
        ranked = dataset.frequency_rank()
        frequent, rare = ranked[0][0], ranked[-1][0]
        kspin.boolean_bknn(0, 3, [[frequent], [rare]])
        # Candidates examined bounded by the rare keyword's list size.
        assert kspin.last_stats.iterations <= dataset.inverted_size(rare)

    def test_validation(self, world):
        _, _, kspin = world
        with pytest.raises(ValueError):
            kspin.boolean_bknn(0, 0, [["a"]])

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_random_expressions(self, seed):
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
            for _ in range(rng.randint(1, 3))
        ]
        expression = BooleanExpression(groups)
        q = rng.randrange(grid.num_vertices)
        expected = brute_force_boolean_bknn(grid, dataset, q, 4, expression)
        actual = kspin.boolean_bknn(q, 4, groups)
        assert results_equivalent(actual, expected), (groups, actual, expected)


class TestWeightedSumTopK:
    def brute_force(self, grid, dataset, kspin, q, k, keywords, alpha, max_distance):
        distances = dijkstra_all(grid, q)
        impacts = kspin.relevance.query_impacts(keywords)
        scored = []
        for o in dataset.objects():
            tr = kspin.relevance.textual_relevance(keywords, o, impacts)
            if tr <= 0 or distances[o] == math.inf:
                continue
            scored.append(
                (weighted_sum_score(distances[o], tr, alpha, max_distance), o)
            )
        scored.sort()
        return [(o, s) for s, o in scored[:k]]

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_matches_brute_force(self, world, alpha):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        max_distance = 30.0
        rng = random.Random(4)
        for _ in range(8):
            q = rng.randrange(grid.num_vertices)
            expected = self.brute_force(
                grid, dataset, kspin, q, 5, keywords, alpha, max_distance
            )
            actual = kspin.top_k_weighted_sum(
                q, 5, keywords, alpha=alpha, max_distance=max_distance
            )
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_default_max_distance_valid(self, world):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        result = kspin.top_k_weighted_sum(0, 5, keywords)
        default_bound = sum(w for _, _, w in grid.edges())
        expected = self.brute_force(
            grid, dataset, kspin, 0, 5, keywords, 0.5, default_bound
        )
        assert results_equivalent(result, expected)

    def test_alpha_extremes(self, world):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        # alpha=1: pure (normalised) distance ranking among TR>0 objects.
        by_distance = kspin.top_k_weighted_sum(
            0, 3, keywords, alpha=1.0, max_distance=100.0
        )
        by_bknn = kspin.execute(Query(0, keywords, k=3)).pairs()
        assert {o for o, _ in by_distance} == {o for o, _ in by_bknn}

    def test_validation(self, world):
        _, _, kspin = world
        with pytest.raises(ValueError):
            kspin.top_k_weighted_sum(0, 0, ["a"])
        with pytest.raises(ValueError):
            kspin.top_k_weighted_sum(0, 3, [])
        with pytest.raises(ValueError):
            kspin.top_k_weighted_sum(0, 3, ["a"], alpha=1.5)
        with pytest.raises(ValueError):
            kspin.top_k_weighted_sum(0, 3, ["a"], max_distance=-1.0)

    def test_scores_sorted_and_bounded(self, world):
        _, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        result = kspin.top_k_weighted_sum(0, 10, keywords, max_distance=50.0)
        scores = [s for _, s in result]
        assert scores == sorted(scores)
        assert all(0.0 <= s <= 1.0 for s in scores)


class TestPersistence:
    def test_roundtrip(self, world, tmp_path):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        expected = kspin.execute(Query(0, keywords, k=5)).pairs()
        path = str(tmp_path / "index.kspin")
        written = save_kspin(kspin, path)
        assert written > 0
        loaded = load_kspin(path)
        assert loaded.execute(Query(0, keywords, k=5)).pairs() == expected
        top = Query(0, keywords, k=3, kind="topk")
        assert loaded.execute(top).pairs() == kspin.execute(top).pairs()

    def test_loaded_index_supports_updates(self, world, tmp_path):
        grid, dataset, kspin = world
        path = str(tmp_path / "index.kspin")
        save_kspin(kspin, path)
        loaded = load_kspin(path)
        free = next(v for v in grid.vertices() if not dataset.is_object(v))
        loaded.apply(UpdateOp("insert", object=free, document=["persisted-kw"]))
        assert loaded.execute(Query(free, ["persisted-kw"], k=1)).pairs() == [(free, 0.0)]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"not an index at all")
        with pytest.raises(PersistenceError):
            load_kspin(str(path))

    def test_truncated_file_rejected(self, world, tmp_path):
        _, _, kspin = world
        path = str(tmp_path / "index.kspin")
        save_kspin(kspin, path)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(PersistenceError):
            load_kspin(path)

    def test_wrong_version_rejected(self, world, tmp_path):
        _, _, kspin = world
        path = str(tmp_path / "index.kspin")
        save_kspin(kspin, path)
        data = bytearray(open(path, "rb").read())
        data[11:13] = (99).to_bytes(2, "big")  # corrupt the version field
        open(path, "wb").write(bytes(data))
        with pytest.raises(PersistenceError):
            load_kspin(path)
