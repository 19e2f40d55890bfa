"""Correctness of every baseline against brute force.

The paper's comparisons are only meaningful if every method returns
exact results; these tests pin that down for G-tree SK (both variants),
ROAD, FS-FBS, and network expansion.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query
from repro.baselines import FsFbs, GTreeSpatialKeyword, NetworkExpansion, Road
from repro.core import brute_force_bknn, brute_force_top_k, results_equivalent
from repro.distance import GTree
from repro.graph import perturbed_grid_network
from repro.text import RelevanceModel

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture(scope="module")
def grid():
    return perturbed_grid_network(8, 8, seed=47)


@pytest.fixture(scope="module")
def dataset(grid):
    return make_dataset(grid, seed=47, object_fraction=0.3, vocabulary=15)


@pytest.fixture(scope="module")
def gtree_sk(grid, dataset):
    return GTreeSpatialKeyword(grid, dataset, leaf_size=8)


@pytest.fixture(scope="module")
def gtree_opt(grid, dataset, gtree_sk):
    return GTreeSpatialKeyword(grid, dataset, gtree=gtree_sk.gtree, optimized=True)


@pytest.fixture(scope="module")
def road(grid, dataset):
    return Road(grid, dataset, leaf_size=16)


@pytest.fixture(scope="module")
def fsfbs(grid, dataset):
    return FsFbs(grid, dataset, frequency_threshold=4)


@pytest.fixture(scope="module")
def expansion(grid, dataset):
    return NetworkExpansion(grid, dataset)


class TestGTreeSpatialKeyword:
    @pytest.mark.parametrize("conjunctive", [False, True])
    def test_bknn_matches_brute_force(self, grid, dataset, gtree_sk, conjunctive):
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(1)
        for _ in range(8):
            q = rng.randrange(grid.num_vertices)
            expected = brute_force_bknn(
                grid, dataset, q, 5, keywords, conjunctive=conjunctive
            )
            mode = "and" if conjunctive else "or"
            actual = gtree_sk.execute(Query(q, keywords, k=5, mode=mode)).pairs()
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_topk_matches_brute_force(self, grid, dataset, gtree_sk):
        relevance = RelevanceModel(dataset)
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(2)
        for _ in range(8):
            q = rng.randrange(grid.num_vertices)
            expected = brute_force_top_k(grid, dataset, relevance, q, 5, keywords)
            actual = gtree_sk.execute(Query(q, keywords, k=5, kind="topk")).pairs()
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_optimized_variant_same_results(self, grid, dataset, gtree_sk, gtree_opt):
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(3)
        for _ in range(6):
            q = rng.randrange(grid.num_vertices)
            for kind in ("topk", "bknn"):
                query = Query(q, keywords, k=5, kind=kind)
                assert results_equivalent(
                    gtree_sk.execute(query).pairs(), gtree_opt.execute(query).pairs()
                )

    def test_optimized_saves_pseudo_document_lookups(
        self, grid, dataset, gtree_sk, gtree_opt
    ):
        """§7.4.2: Gtree-Opt avoids pseudo-document look-ups..."""
        keywords = popular_keywords(dataset, 2)
        gtree_sk.reset_counters()
        gtree_opt.reset_counters()
        rng = random.Random(4)
        for _ in range(6):
            q = rng.randrange(grid.num_vertices)
            gtree_sk.execute(Query(q, keywords, k=5, kind="topk"))
            lookups_original = gtree_sk.pseudo_document_lookups
            gtree_sk.reset_counters()
            gtree_opt.execute(Query(q, keywords, k=5, kind="topk"))
            lookups_optimized = gtree_opt.pseudo_document_lookups
            gtree_opt.reset_counters()
            assert lookups_optimized <= lookups_original

    def test_optimized_does_not_reduce_matrix_operations(
        self, grid, dataset, gtree_sk, gtree_opt
    ):
        """...but matrix operations stay essentially identical (Fig 16)."""
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(5)
        total_original, total_optimized = 0, 0
        for _ in range(8):
            q = rng.randrange(grid.num_vertices)
            gtree_sk.reset_counters()
            gtree_sk.execute(Query(q, keywords, k=5, kind="topk"))
            total_original += gtree_sk.matrix_operations
            gtree_opt.reset_counters()
            gtree_opt.execute(Query(q, keywords, k=5, kind="topk"))
            total_optimized += gtree_opt.matrix_operations
        assert total_optimized >= 0.5 * total_original

    def test_unknown_keyword_empty(self, gtree_sk):
        assert gtree_sk.execute(Query(0, ["nothing"], k=3)).pairs() == []
        assert gtree_sk.execute(Query(0, ["nothing"], k=3, kind="topk")).pairs() == []

    def test_validation(self, gtree_sk):
        with pytest.raises(ValueError):
            gtree_sk.execute(Query(0, ["a"], k=0))
        with pytest.raises(ValueError):
            gtree_sk.execute(Query(0, [], k=3, kind="topk"))

    def test_memory_reported(self, gtree_sk):
        assert gtree_sk.memory_bytes() > 0


class TestRoad:
    def test_knn_matches_brute_force(self, grid, dataset, road):
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(6)
        for conjunctive in (False, True):
            for _ in range(6):
                q = rng.randrange(grid.num_vertices)
                expected = brute_force_bknn(
                    grid, dataset, q, 5, keywords, conjunctive=conjunctive
                )
                mode = "and" if conjunctive else "or"
                actual = road.execute(Query(q, keywords, k=5, mode=mode)).pairs()
                assert results_equivalent(actual, expected), (q, actual, expected)

    def test_topk_matches_brute_force(self, grid, dataset, road):
        relevance = RelevanceModel(dataset)
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(7)
        for _ in range(8):
            q = rng.randrange(grid.num_vertices)
            expected = brute_force_top_k(grid, dataset, relevance, q, 5, keywords)
            actual = road.execute(Query(q, keywords, k=5, kind="topk")).pairs()
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_bypasses_used_for_rare_keywords(self, grid, dataset, road):
        rare = dataset.frequency_rank()[-1][0]
        road.reset_counters()
        for q in range(0, grid.num_vertices, 7):
            road.execute(Query(q, [rare], k=1))
        assert road.bypasses_taken > 0

    def test_validation(self, road):
        with pytest.raises(ValueError):
            road.execute(Query(0, ["a"], k=0))
        with pytest.raises(ValueError):
            road.execute(Query(0, [], k=3, kind="topk"))

    def test_rejects_degenerate_construction(self, grid, dataset):
        with pytest.raises(ValueError):
            Road(grid, dataset, fanout=1)

    def test_memory_reported(self, road):
        assert road.memory_bytes() > 0


class TestFsFbs:
    @pytest.mark.parametrize("conjunctive", [False, True])
    def test_bknn_matches_brute_force(self, grid, dataset, fsfbs, conjunctive):
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(8)
        for _ in range(8):
            q = rng.randrange(grid.num_vertices)
            expected = brute_force_bknn(
                grid, dataset, q, 5, keywords, conjunctive=conjunctive
            )
            mode = "and" if conjunctive else "or"
            actual = fsfbs.execute(Query(q, keywords, k=5, mode=mode)).pairs()
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_infrequent_keyword_scans_whole_list(self, grid, dataset, fsfbs):
        rare = dataset.frequency_rank()[-1][0]
        assert not fsfbs._is_frequent(rare)
        fsfbs.reset_counters()
        fsfbs.execute(Query(0, [rare], k=1))
        # Every reachable object in the rare list was evaluated (no
        # early termination) even though only 1 result was requested.
        assert fsfbs.distance_computations >= min(
            2, dataset.inverted_size(rare)
        )

    def test_mixed_frequency_query(self, grid, dataset, fsfbs):
        ranked = dataset.frequency_rank()
        frequent = ranked[0][0]
        rare = ranked[-1][0]
        expected = brute_force_bknn(grid, dataset, 3, 5, [frequent, rare])
        actual = fsfbs.execute(Query(3, [frequent, rare], k=5)).pairs()
        assert results_equivalent(actual, expected)

    def test_collisions_counted_with_tiny_hash(self, grid, dataset):
        crowded = FsFbs(grid, dataset, frequency_threshold=1, hash_bits=2)
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(9)
        for _ in range(15):
            q = rng.randrange(grid.num_vertices)
            crowded.execute(Query(q, [keywords[0]], k=3, mode="and"))
            crowded.execute(Query(q, keywords, k=3, mode="and"))
        # With a 2-bit hash, conjunctive masks collide readily.
        assert crowded.hash_false_positives >= 0  # counter wired up
        # Results stay exact despite collisions.
        expected = brute_force_bknn(grid, dataset, 0, 5, keywords, conjunctive=True)
        assert results_equivalent(
            crowded.execute(Query(0, keywords, k=5, mode="and")).pairs(), expected
        )

    def test_largest_index_footprint(self, grid, dataset, fsfbs, gtree_sk, road):
        """FS-FBS's backward labels dominate every other baseline's index."""
        assert fsfbs.memory_bytes() > road.memory_bytes()

    def test_validation(self, fsfbs, grid, dataset):
        with pytest.raises(ValueError):
            fsfbs.execute(Query(0, ["a"], k=0))
        with pytest.raises(ValueError):
            fsfbs.execute(Query(0, [], k=1))
        with pytest.raises(ValueError):
            FsFbs(grid, dataset, hash_bits=0)


class TestNetworkExpansion:
    def test_bknn_matches_brute_force(self, grid, dataset, expansion):
        keywords = popular_keywords(dataset, 2)
        for conjunctive in (False, True):
            expected = brute_force_bknn(
                grid, dataset, 5, 4, keywords, conjunctive=conjunctive
            )
            mode = "and" if conjunctive else "or"
            actual = expansion.execute(Query(5, keywords, k=4, mode=mode)).pairs()
            assert results_equivalent(actual, expected)

    def test_topk_matches_brute_force(self, grid, dataset, expansion):
        relevance = RelevanceModel(dataset)
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(10)
        for _ in range(8):
            q = rng.randrange(grid.num_vertices)
            expected = brute_force_top_k(grid, dataset, relevance, q, 5, keywords)
            actual = expansion.execute(Query(q, keywords, k=5, kind="topk")).pairs()
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_validation(self, expansion):
        with pytest.raises(ValueError):
            expansion.execute(Query(0, ["a"], k=0))
        with pytest.raises(ValueError):
            expansion.execute(Query(0, [], k=1, kind="topk"))
        assert expansion.execute(Query(0, ["missing"], k=1, kind="topk")).pairs() == []
        assert expansion.memory_bytes() == 0


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=15, deadline=None)
def test_all_methods_agree_property(seed, k):
    """Every method returns the same BkNN answer on random worlds."""
    grid = perturbed_grid_network(5, 5, seed=seed % 11)
    dataset = make_dataset(grid, seed=seed, object_fraction=0.4, vocabulary=6)
    keywords = [f"kw{seed % 6}", f"kw{(seed // 7) % 6}"]
    q = seed % grid.num_vertices
    expected = brute_force_bknn(grid, dataset, q, k, keywords)
    methods = [
        GTreeSpatialKeyword(grid, dataset, leaf_size=6),
        Road(grid, dataset, leaf_size=8),
        FsFbs(grid, dataset, frequency_threshold=3),
        NetworkExpansion(grid, dataset),
    ]
    for method in methods:
        if isinstance(method, Road):
            actual = method.execute(Query(q, keywords, k=k)).pairs()
        else:
            actual = method.execute(Query(q, keywords, k=k)).pairs()
        assert results_equivalent(actual, expected), (method.name, actual, expected)
