"""Tests for background (parallel) APX-NVD rebuilding (paper §6.2)."""

import pytest

from repro.api import Query, UpdateOp
from repro.core import BackgroundRebuilder, KSpin, brute_force_bknn, results_equivalent
from repro.distance import DijkstraOracle
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.text import KeywordDataset

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture
def world():
    grid = perturbed_grid_network(7, 7, seed=13)
    dataset = make_dataset(grid, seed=13, object_fraction=0.3, vocabulary=10)
    kspin = KSpin(
        grid,
        dataset,
        oracle=DijkstraOracle(grid),
        lower_bounder=AltLowerBounder(grid, num_landmarks=6),
        rho=3,
        rebuild_threshold=2,
    )
    return grid, dataset, kspin


def current_reference(grid, kspin, universe):
    documents = {}
    for v in universe:
        doc = {
            t: f
            for t, f in kspin.index.document(v).items()
            if kspin.index.has_keyword(v, t)
        }
        if doc:
            documents[v] = doc
    return KeywordDataset(documents)


class TestBackgroundRebuilder:
    def test_scheduled_rebuild_swaps_diagram(self, world):
        grid, dataset, kspin = world
        keyword = popular_keywords(dataset, 1)[0]
        free = [v for v in grid.vertices() if not dataset.is_object(v)][:3]
        for v in free:
            kspin.apply(UpdateOp("insert", object=v, document=[keyword]))
        assert kspin.index.nvd(keyword).pending_updates == 3
        with BackgroundRebuilder(kspin.index, grid) as rebuilder:
            rebuilder.schedule(keyword)
            rebuilder.wait()
            assert keyword in rebuilder.rebuilt_keywords
        assert kspin.index.nvd(keyword).pending_updates == 0
        assert not kspin.index.nvd(keyword).colocated

    def test_queries_exact_after_background_rebuild(self, world):
        grid, dataset, kspin = world
        keyword = popular_keywords(dataset, 1)[0]
        free = [v for v in grid.vertices() if not dataset.is_object(v)][:3]
        for v in free:
            kspin.apply(UpdateOp("insert", object=v, document=[keyword]))
        with BackgroundRebuilder(kspin.index, grid) as rebuilder:
            rebuilder.schedule(keyword)
            # Queries keep working while the rebuild is in flight.
            interim = kspin.execute(Query(0, [keyword], k=5)).pairs()
            assert interim
            rebuilder.wait()
        universe = list(dataset.objects()) + free
        reference = current_reference(grid, kspin, universe)
        expected = brute_force_bknn(grid, reference, 0, 5, [keyword])
        actual = kspin.execute(Query(0, [keyword], k=5)).pairs()
        assert results_equivalent(actual, expected)
        assert results_equivalent(interim, expected)

    def test_schedule_pending_honours_threshold(self, world):
        grid, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        free = [v for v in grid.vertices() if not dataset.is_object(v)]
        # Two updates for keyword[0] (meets threshold 2), one for keyword[1].
        kspin.apply(UpdateOp("insert", object=free[0], document=[keywords[0]]))
        kspin.apply(UpdateOp("insert", object=free[1], document=[keywords[0]]))
        kspin.apply(UpdateOp("insert", object=free[2], document=[keywords[1]]))
        with BackgroundRebuilder(kspin.index, grid) as rebuilder:
            scheduled = rebuilder.schedule_pending()
            rebuilder.wait()
        assert keywords[0] in scheduled
        assert keywords[1] not in scheduled

    def test_unknown_keyword_is_ignored(self, world):
        grid, _, kspin = world
        with BackgroundRebuilder(kspin.index, grid) as rebuilder:
            rebuilder.schedule("never-existed")
            rebuilder.wait()
            assert rebuilder.rebuilt_keywords == []

    def test_close_is_idempotent_with_context_manager(self, world):
        grid, _, kspin = world
        rebuilder = BackgroundRebuilder(kspin.index, grid)
        rebuilder.close()
        # The worker is gone; constructing a fresh one still works.
        with BackgroundRebuilder(kspin.index, grid) as second:
            second.wait()
