"""End-to-end correctness of K-SPIN queries against brute force.

Covers Lemma 2 (top-k exactness with pseudo lower bounds), BkNN
exactness for both operators, equality across distance oracles, and the
paper's kappa <= 3k / 5k candidate-efficiency claims.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query
from repro.core import KSpin, brute_force_bknn, brute_force_top_k, results_equivalent
from repro.distance import ContractionHierarchy, DijkstraOracle
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.text import KeywordDataset, RelevanceModel, ZipfSampler


def make_dataset(graph, seed=0, object_fraction=0.25, vocabulary=40):
    """Zipfian keyword dataset over a fraction of the vertices."""
    rng = random.Random(seed)
    sampler = ZipfSampler(vocabulary, alpha=1.0, seed=seed)
    count = max(4, int(graph.num_vertices * object_fraction))
    objects = rng.sample(range(graph.num_vertices), count)
    documents = {}
    for o in objects:
        size = rng.randint(1, 5)
        keywords = [f"kw{sampler.sample_rank()}" for _ in range(size)]
        documents[o] = keywords
    return KeywordDataset(documents)


@pytest.fixture(scope="module")
def grid():
    return perturbed_grid_network(9, 9, seed=3)


@pytest.fixture(scope="module")
def dataset(grid):
    return make_dataset(grid, seed=11)


@pytest.fixture(scope="module")
def kspin(grid, dataset):
    return KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=8),
        rho=4,
    )


def popular_keywords(dataset, count=3):
    return [kw for kw, _ in dataset.frequency_rank()[:count]]


class TestBknnCorrectness:
    @pytest.mark.parametrize("conjunctive", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_brute_force(self, grid, dataset, kspin, conjunctive, k):
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(k + int(conjunctive))
        for _ in range(8):
            q = rng.randrange(grid.num_vertices)
            expected = brute_force_bknn(
                grid, dataset, q, k, keywords, conjunctive=conjunctive
            )
            mode = "and" if conjunctive else "or"
            actual = kspin.execute(Query(q, keywords, k=k, mode=mode)).pairs()
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_disjunctive_single_keyword(self, grid, dataset, kspin):
        keyword = popular_keywords(dataset, 1)[0]
        expected = brute_force_bknn(grid, dataset, 0, 5, [keyword])
        actual = kspin.execute(Query(0, [keyword], k=5)).pairs()
        assert results_equivalent(actual, expected)

    def test_unknown_keyword_returns_empty(self, kspin):
        assert kspin.execute(Query(0, ["no-such-keyword"], k=3)).pairs() == []
        assert kspin.execute(Query(0, ["no-such-keyword"], k=3, mode="and")).pairs() == []

    def test_conjunctive_with_one_unknown_keyword_empty(self, dataset, kspin):
        keyword = popular_keywords(dataset, 1)[0]
        assert kspin.execute(Query(0, [keyword, "missing"], k=3, mode="and")).pairs() == []

    def test_disjunctive_with_one_unknown_keyword_works(self, grid, dataset, kspin):
        keyword = popular_keywords(dataset, 1)[0]
        expected = brute_force_bknn(grid, dataset, 0, 3, [keyword])
        actual = kspin.execute(Query(0, [keyword, "missing"], k=3)).pairs()
        assert results_equivalent(actual, expected)

    def test_k_larger_than_matches(self, grid, dataset, kspin):
        rare = dataset.frequency_rank()[-1][0]
        matches = dataset.inverted_size(rare)
        result = kspin.execute(Query(0, [rare], k=matches + 10)).pairs()
        assert len(result) == matches

    def test_validation(self, kspin):
        with pytest.raises(ValueError):
            kspin.execute(Query(0, ["kw0"], k=0))
        with pytest.raises(ValueError):
            kspin.execute(Query(0, [], k=3))

    def test_results_sorted_by_distance(self, dataset, kspin):
        keywords = popular_keywords(dataset, 2)
        result = kspin.execute(Query(0, keywords, k=10)).pairs()
        distances = [d for _, d in result]
        assert distances == sorted(distances)


class TestTopKCorrectness:
    @pytest.mark.parametrize("k", [1, 5, 10])
    @pytest.mark.parametrize("num_terms", [1, 2, 3])
    def test_matches_brute_force(self, grid, dataset, kspin, k, num_terms):
        relevance = RelevanceModel(dataset)
        keywords = popular_keywords(dataset, num_terms)
        rng = random.Random(k * 10 + num_terms)
        for _ in range(6):
            q = rng.randrange(grid.num_vertices)
            expected = brute_force_top_k(grid, dataset, relevance, q, k, keywords)
            actual = kspin.execute(Query(q, keywords, k=k, kind="topk")).pairs()
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_valid_lower_bound_variant_also_exact(self, grid, dataset, kspin):
        """The ablation (no pseudo LB) must return identical results."""
        keywords = popular_keywords(dataset, 3)
        rng = random.Random(77)
        for _ in range(6):
            q = rng.randrange(grid.num_vertices)
            with_pseudo = kspin.processor.top_k(q, 5, keywords, use_pseudo_lower_bound=True)
            without = kspin.processor.top_k(q, 5, keywords, use_pseudo_lower_bound=False)
            assert results_equivalent(with_pseudo, without)

    def test_pseudo_lb_examines_no_more_candidates(self, grid, dataset, kspin):
        """Lemma 1 consequence: pseudo bounds can only tighten access order."""
        keywords = popular_keywords(dataset, 3)
        rng = random.Random(5)
        total_pseudo, total_valid = 0, 0
        for _ in range(10):
            q = rng.randrange(grid.num_vertices)
            kspin.processor.top_k(q, 5, keywords, use_pseudo_lower_bound=True)
            total_pseudo += kspin.last_stats.distance_computations
            kspin.processor.top_k(q, 5, keywords, use_pseudo_lower_bound=False)
            total_valid += kspin.last_stats.distance_computations
        assert total_pseudo <= total_valid

    def test_unknown_keywords_empty(self, kspin):
        assert kspin.execute(Query(0, ["missing-kw"], k=3, kind="topk")).pairs() == []

    def test_scores_sorted(self, dataset, kspin):
        result = kspin.execute(Query(0, popular_keywords(dataset, 2), k=10, kind="topk")).pairs()
        scores = [s for _, s in result]
        assert scores == sorted(scores)

    def test_validation(self, kspin):
        with pytest.raises(ValueError):
            kspin.execute(Query(0, ["kw0"], k=0, kind="topk"))
        with pytest.raises(ValueError):
            kspin.execute(Query(0, [], k=3, kind="topk"))


class TestCandidateEfficiency:
    def test_bknn_kappa_small_multiple_of_k(self, grid, dataset, kspin):
        """Paper §5.1: kappa is at most ~3k for BkNN in practice."""
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(6)
        for k in (1, 5, 10):
            worst = 0
            for _ in range(10):
                q = rng.randrange(grid.num_vertices)
                kspin.execute(Query(q, keywords, k=k))
                worst = max(worst, kspin.last_stats.iterations)
            # Small synthetic corpora are noisier than the US dataset;
            # allow a little headroom above the paper's 3k.
            assert worst <= 5 * k + 5

    def test_topk_kappa_small_multiple_of_k(self, grid, dataset, kspin):
        """Paper §5.1: kappa is at most ~5k for top-k in practice."""
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(7)
        for k in (1, 5, 10):
            worst = 0
            for _ in range(10):
                q = rng.randrange(grid.num_vertices)
                kspin.execute(Query(q, keywords, k=k, kind="topk"))
                worst = max(worst, kspin.last_stats.iterations)
            assert worst <= 7 * k + 7

    def test_stats_populated(self, dataset, kspin):
        kspin.execute(Query(0, popular_keywords(dataset, 2), k=5))
        stats = kspin.last_stats
        assert stats.heaps_created >= 1
        assert stats.distance_computations >= 1
        assert stats.lower_bound_computations >= 1
        assert stats.heap_insertions >= 1


class TestOracleAgnosticism:
    """The flexibility claim: identical results whatever the oracle."""

    def test_ch_variant_matches_dijkstra_variant(self, grid, dataset):
        alt = AltLowerBounder(grid, num_landmarks=6)
        ks_dij = KSpin(grid, dataset, oracle=DijkstraOracle(grid), lower_bounder=alt)
        ks_ch = KSpin(
            grid, dataset, oracle=ContractionHierarchy(grid), lower_bounder=alt
        )
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(8)
        for _ in range(5):
            q = rng.randrange(grid.num_vertices)
            for kind in ("bknn", "topk"):
                query = Query(q, keywords, k=5, kind=kind)
                assert results_equivalent(
                    ks_dij.execute(query).pairs(), ks_ch.execute(query).pairs()
                )


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=6),
    conjunctive=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_bknn_property_random_worlds(seed, k, conjunctive):
    """Property test: K-SPIN equals brute force on random small worlds."""
    grid = perturbed_grid_network(5, 5, seed=seed % 13)
    dataset = make_dataset(grid, seed=seed, object_fraction=0.4, vocabulary=8)
    kspin = KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=4, seed=seed),
        rho=3,
    )
    rng = random.Random(seed)
    keywords = [f"kw{rng.randrange(8)}" for _ in range(rng.randint(1, 3))]
    q = rng.randrange(grid.num_vertices)
    expected = brute_force_bknn(grid, dataset, q, k, keywords, conjunctive=conjunctive)
    mode = "and" if conjunctive else "or"
    actual = kspin.execute(Query(q, keywords, k=k, mode=mode)).pairs()
    assert results_equivalent(actual, expected), (q, keywords, actual, expected)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_topk_property_random_worlds(seed, k):
    """Lemma 2 as a property: pseudo-LB top-k is exact everywhere."""
    grid = perturbed_grid_network(5, 5, seed=seed % 13)
    dataset = make_dataset(grid, seed=seed, object_fraction=0.4, vocabulary=8)
    relevance = RelevanceModel(dataset)
    kspin = KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=4, seed=seed),
        rho=3,
    )
    rng = random.Random(seed)
    keywords = [f"kw{rng.randrange(8)}" for _ in range(rng.randint(1, 3))]
    q = rng.randrange(grid.num_vertices)
    expected = brute_force_top_k(grid, dataset, relevance, q, k, keywords)
    actual = kspin.execute(Query(q, keywords, k=k, kind="topk")).pairs()
    assert results_equivalent(actual, expected), (q, keywords, actual, expected)
