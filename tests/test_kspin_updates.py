"""Exactness of K-SPIN queries under lazy updates (paper §6.2)."""

import random

import pytest

from repro.api import Query, UpdateOp
from repro.core import KSpin, brute_force_bknn, brute_force_top_k, results_equivalent
from repro.core.updates import apply_lazy_inserts, pick_update_keywords
from repro.distance import DijkstraOracle
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.text import KeywordDataset, RelevanceModel

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture
def grid():
    return perturbed_grid_network(7, 7, seed=19)


@pytest.fixture
def dataset(grid):
    return make_dataset(grid, seed=23, object_fraction=0.3, vocabulary=12)


@pytest.fixture
def kspin(grid, dataset):
    return KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=6),
        rho=3,
        rebuild_threshold=5,
    )


def current_dataset(grid, kspin, universe):
    """Materialise the index's post-update state as a KeywordDataset."""
    documents = {}
    for v in universe:
        doc = kspin.index.document(v)
        live = {
            t: f for t, f in doc.items() if kspin.index.has_keyword(v, t)
        }
        if live:
            documents[v] = live
    return KeywordDataset(documents)


class TestObjectDeletion:
    def test_deleted_object_never_returned(self, grid, dataset, kspin):
        keywords = popular_keywords(dataset, 1)
        victim = dataset.inverted_list(keywords[0])[0]
        kspin.apply(UpdateOp("delete", object=victim))
        result = kspin.execute(Query(0, keywords, k=dataset.inverted_size(keywords[0]))).pairs()
        assert victim not in {o for o, _ in result}

    def test_queries_exact_after_deletions(self, grid, dataset, kspin):
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(1)
        victims = rng.sample(dataset.objects(), 3)
        for v in victims:
            kspin.apply(UpdateOp("delete", object=v))
        reference = current_dataset(grid, kspin, dataset.objects())
        for q in (0, 10, 25):
            expected = brute_force_bknn(grid, reference, q, 5, keywords)
            actual = kspin.execute(Query(q, keywords, k=5)).pairs()
            assert results_equivalent(actual, expected)

    def test_delete_unknown_raises(self, kspin, grid):
        empty_vertex = next(
            v for v in grid.vertices() if not kspin.index.document(v)
        )
        with pytest.raises(KeyError):
            kspin.apply(UpdateOp("delete", object=empty_vertex))


class TestObjectInsertion:
    def test_inserted_object_findable(self, grid, dataset, kspin):
        new_vertex = next(
            v for v in grid.vertices() if not dataset.is_object(v)
        )
        kspin.apply(UpdateOp("insert", object=new_vertex, document=["brand-new-keyword"]))
        result = kspin.execute(Query(new_vertex, ["brand-new-keyword"], k=1)).pairs()
        assert result == [(new_vertex, 0.0)]

    def test_queries_exact_after_insertions(self, grid, dataset, kspin):
        keywords = popular_keywords(dataset, 2)
        free = [v for v in grid.vertices() if not dataset.is_object(v)][:4]
        for v in free:
            kspin.apply(UpdateOp("insert", object=v, document=[keywords[0]]))
        universe = list(dataset.objects()) + free
        reference = current_dataset(grid, kspin, universe)
        for q in (0, 12, 30):
            expected = brute_force_bknn(grid, reference, q, 5, keywords)
            actual = kspin.execute(Query(q, keywords, k=5)).pairs()
            assert results_equivalent(actual, expected)

    def test_topk_exact_after_insertions(self, grid, dataset, kspin):
        """Top-k after lazy inserts matches brute force under the
        documented semantics: IDF (query impacts) stays frozen at build
        time until a rebuild; object impacts reflect live documents."""
        from repro.graph import dijkstra_all

        keywords = popular_keywords(dataset, 2)
        free = [v for v in grid.vertices() if not dataset.is_object(v)][:3]
        for v in free:
            kspin.apply(UpdateOp("insert", object=v, document={keywords[0]: 2, keywords[1]: 1}))
        universe = list(dataset.objects()) + free
        reference = current_dataset(grid, kspin, universe)
        query_impacts = kspin.relevance.query_impacts(keywords)
        for q in (0, 20):
            distances = dijkstra_all(grid, q)
            scored = []
            for o in reference.objects():
                tr = kspin.relevance.relevance_from_document(
                    reference.document(o), query_impacts
                )
                if tr > 0:
                    scored.append((distances[o] / tr, o))
            scored.sort()
            expected = [(o, s) for s, o in scored[:5]]
            actual = kspin.execute(Query(q, keywords, k=5, kind="topk")).pairs()
            assert results_equivalent(actual, expected)

    def test_empty_document_rejected(self, kspin):
        with pytest.raises(ValueError):
            kspin.apply(UpdateOp("insert", object=0, document=[]))


class TestKeywordUpdates:
    def test_add_keyword_makes_object_match(self, grid, dataset, kspin):
        obj = dataset.objects()[0]
        kspin.apply(UpdateOp("add_keyword", object=obj, keyword="added-keyword"))
        result = kspin.execute(Query(obj, ["added-keyword"], k=1)).pairs()
        assert result == [(obj, 0.0)]

    def test_remove_keyword_stops_matching(self, grid, dataset, kspin):
        keyword = popular_keywords(dataset, 1)[0]
        obj = dataset.inverted_list(keyword)[0]
        kspin.apply(UpdateOp("remove_keyword", object=obj, keyword=keyword))
        size = dataset.inverted_size(keyword)
        result = kspin.execute(Query(0, [keyword], k=size)).pairs()
        assert obj not in {o for o, _ in result}

    def test_remove_missing_keyword_raises(self, dataset, kspin):
        with pytest.raises(KeyError):
            kspin.apply(UpdateOp("remove_keyword", object=dataset.objects()[0], keyword="never-there"))

    def test_add_keyword_validation(self, dataset, kspin):
        with pytest.raises(ValueError):
            kspin.apply(UpdateOp("add_keyword", object=dataset.objects()[0], keyword="x", frequency=0))


class TestRebuild:
    def test_rebuild_after_threshold(self, grid, dataset, kspin):
        keyword = popular_keywords(dataset, 1)[0]
        free = [v for v in grid.vertices() if not dataset.is_object(v)][:6]
        for v in free:
            kspin.apply(UpdateOp("insert", object=v, document=[keyword]))
        rebuilt = kspin.apply(UpdateOp("rebuild"))["rebuilt"]
        assert keyword in rebuilt
        assert kspin.index.nvd(keyword).pending_updates == 0

    def test_queries_exact_after_rebuild(self, grid, dataset, kspin):
        keyword = popular_keywords(dataset, 1)[0]
        free = [v for v in grid.vertices() if not dataset.is_object(v)][:6]
        for v in free:
            kspin.apply(UpdateOp("insert", object=v, document=[keyword]))
        kspin.apply(UpdateOp("rebuild"))
        universe = list(dataset.objects()) + free
        reference = current_dataset(grid, kspin, universe)
        expected = brute_force_bknn(grid, reference, 0, 5, [keyword])
        actual = kspin.execute(Query(0, [keyword], k=5)).pairs()
        assert results_equivalent(actual, expected)


class TestUpdateInstrumentation:
    def test_pick_update_keywords_spread(self, dataset):
        chosen = pick_update_keywords(dataset, rho=2)
        assert set(chosen) == {"large", "medium", "small"}
        sizes = {label: dataset.inverted_size(kw) for label, kw in chosen.items()}
        assert sizes["large"] >= sizes["medium"] >= sizes["small"]
        assert all(size > 2 for size in sizes.values())

    def test_pick_update_keywords_small_corpus(self):
        tiny = KeywordDataset({1: ["a"], 2: ["a"]})
        with pytest.raises(ValueError):
            pick_update_keywords(tiny, rho=5)

    def test_apply_lazy_inserts_measures_costs(self, grid, dataset, kspin):
        keyword = popular_keywords(dataset, 1)[0]
        nvd = kspin.index.nvd(keyword)
        costs = apply_lazy_inserts(nvd, grid, 0.2, kspin.oracle.distance)
        assert costs.inserted >= 1
        assert costs.mean_insert_seconds >= 0.0
        assert costs.rebuild_seconds > 0.0
        with pytest.raises(ValueError):
            apply_lazy_inserts(nvd, grid, 0.0, kspin.oracle.distance)
