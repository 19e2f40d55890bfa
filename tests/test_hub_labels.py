"""Hub-label serving stack: PLL exactness, label seeding, composite.

Three layers, each with its own contract:

* the array-backed :class:`HubLabeling` must return exactly the
  Dijkstra distance under every supported vertex order (hypothesis
  property over random connected graphs);
* label-seeded candidate generation (:class:`LabelHeapGenerator`) must
  be **result-identical** to the paper's NVD+ALT seeding on serving
  workloads — through the bare framework, the Engine, and both cluster
  placements — and must fall back to NVD expansion while a keyword's
  diagram has pending lazy updates;
* the :class:`CompositeOracle` routes every query class to an exact
  backend, so routing (and :meth:`calibrate`) can only change speed.
"""

import random

import pytest
from hypothesis import given, settings

from repro.api import Query, UpdateOp
from repro.core import KSpin
from repro.core.label_seeding import LabelHeap, LabelHeapGenerator
from repro.datasets import WorkloadGenerator, load_dataset
from repro.distance import (
    CompositeOracle,
    DijkstraOracle,
    HubLabeling,
    KeywordLabelIndex,
    importance_order,
)
from repro.graph import dijkstra_all, perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.serve import ClusterCoordinator, Engine

from tests.test_distance_oracles import connected_graph
from tests.test_kspin_queries import make_dataset, popular_keywords

BKNN_K = 5


# ----------------------------------------------------------------------
# Layer 1: array-backed PLL exactness under both named orders
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", ["degree", "ch"])
@given(g=connected_graph())
@settings(max_examples=25, deadline=None)
def test_label_query_matches_dijkstra(order, g):
    hub = HubLabeling(g, order=order)
    truth = dijkstra_all(g, 0)
    for t in range(g.num_vertices):
        assert hub.distance(0, t) == pytest.approx(truth[t])


@given(g=connected_graph())
@settings(max_examples=15, deadline=None)
def test_batch_paths_agree_with_scalar(g):
    hub = HubLabeling(g, order="ch")
    rng = random.Random(7)
    pairs = [
        (rng.randrange(g.num_vertices), rng.randrange(g.num_vertices))
        for _ in range(10)
    ]
    batch = hub.distances_many([s for s, _ in pairs], [t for _, t in pairs])
    # Same oracle, scalar vs vectorised path: bit-identical, not approx.
    assert batch == [hub.distance(s, t) for s, t in pairs]


def test_importance_order_is_a_permutation():
    grid = perturbed_grid_network(5, 5, seed=3)
    for kind in ("degree", "ch"):
        order = importance_order(grid, kind)
        assert sorted(order) == list(range(grid.num_vertices))


# ----------------------------------------------------------------------
# Layer 2: label seeding == NVD+ALT seeding, everywhere
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    return load_dataset("DE-S")


@pytest.fixture(scope="module")
def composite(world):
    return CompositeOracle(world.graph)


@pytest.fixture(scope="module")
def workload(world):
    generator = WorkloadGenerator(world.graph, world.keywords, seed=31)
    items = generator.queries(num_terms=2, num_vectors=4, vertices_per_vector=3)
    queries = []
    for item in items:
        queries.append(Query(vertex=item.vertex, keywords=item.keywords, k=BKNN_K))
        queries.append(
            Query(vertex=item.vertex, keywords=item.keywords, k=BKNN_K, mode="and")
        )
        queries.append(
            Query(vertex=item.vertex, keywords=item.keywords, k=BKNN_K, kind="topk")
        )
    return queries


def _kspin(world, composite, seeding):
    return KSpin(
        world.graph,
        world.keywords,
        oracle=composite,
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
        seeding=seeding,
    )


@pytest.fixture(scope="module")
def kspin_nvd(world, composite):
    return _kspin(world, composite, "nvd")


@pytest.fixture(scope="module")
def kspin_labels(world, composite):
    return _kspin(world, composite, "labels")


class TestSeedingIdentity:
    def test_framework_results_bit_identical(
        self, kspin_nvd, kspin_labels, workload
    ):
        for query in workload:
            expected = kspin_nvd.execute(query).pairs()
            # Shared oracle -> identical floats, so == rather than approx.
            assert kspin_labels.execute(query).pairs() == expected, query
        generator = kspin_labels.heap_generator
        assert isinstance(generator, LabelHeapGenerator)
        assert generator.label_heaps > 0
        assert generator.fallback_heaps == 0
        assert generator.label_memory_bytes() > 0

    def test_engine_results_bit_identical(self, kspin_nvd, kspin_labels, workload):
        nvd_engine = Engine(kspin_nvd, cache_size=0)
        label_engine = Engine(kspin_labels, cache_size=0)
        for query in workload:
            assert (
                label_engine.execute(query).pairs()
                == nvd_engine.execute(query).pairs()
            ), query

    @pytest.mark.parametrize("placement", ["replicate", "shard-by-keyword"])
    def test_cluster_both_placements(
        self, kspin_nvd, kspin_labels, workload, placement
    ):
        """Label-seeded workers (forked with numpy label arrays) match
        the NVD-seeded single-process answers under both placements."""
        queries = workload[:6]
        with ClusterCoordinator(
            kspin_labels, num_workers=2, placement=placement,
            cache_size=0, health_interval=5.0,
        ) as cluster:
            for query in queries:
                assert (
                    cluster.execute(query).pairs()
                    == kspin_nvd.execute(query).pairs()
                ), query


class TestUpdateFallbackRebuild:
    def test_dirty_diagram_falls_back_then_recovers(self, world, composite):
        label_engine = _kspin(world, composite, "labels")
        nvd_engine = _kspin(world, composite, "nvd")
        generator = label_engine.heap_generator
        keyword = popular_keywords(world.keywords, 1)[0]
        query = Query(vertex=0, keywords=(keyword,), k=BKNN_K)

        label_engine.execute(query)
        assert generator.fallback_heaps == 0

        victim = label_engine.execute(query).pairs()[0][0]
        label_engine.apply(UpdateOp("delete", object=victim))
        nvd_engine.apply(UpdateOp("delete", object=victim))

        before = generator.fallback_heaps
        answer = label_engine.execute(query).pairs()
        assert generator.fallback_heaps == before + 1
        assert victim not in [obj for obj, _ in answer]
        assert answer == nvd_engine.execute(query).pairs()

        # Force the rebuild and confirm label heaps resume, still exact.
        label_engine.index.rebuild_threshold = 1
        nvd_engine.index.rebuild_threshold = 1
        assert keyword in label_engine.apply(UpdateOp("rebuild"))["rebuilt"]
        nvd_engine.apply(UpdateOp("rebuild"))
        heaps_before = generator.label_heaps
        assert label_engine.execute(query).pairs() == nvd_engine.execute(
            query
        ).pairs()
        assert generator.label_heaps > heaps_before

    def test_invalidate_drops_cached_indexes(self, world, composite):
        label_engine = _kspin(world, composite, "labels")
        generator = label_engine.heap_generator
        keyword = popular_keywords(world.keywords, 1)[0]
        label_engine.execute(Query(vertex=0, keywords=(keyword,), k=3))
        assert generator.label_memory_bytes() > 0
        generator.invalidate([keyword])
        assert generator.label_memory_bytes() == 0
        generator.invalidate(None)  # idempotent on empty cache


class TestLabelHeapUnits:
    @pytest.fixture(scope="class")
    def small(self):
        grid = perturbed_grid_network(6, 6, seed=5)
        dataset = make_dataset(grid, seed=9, object_fraction=0.4, vocabulary=6)
        kspin = KSpin(
            grid, dataset, oracle=DijkstraOracle(grid),
            lower_bounder=AltLowerBounder(grid, num_landmarks=4), rho=3,
        )
        labeling = HubLabeling(grid, order="ch")
        return grid, dataset, kspin, labeling

    def test_index_snapshots_live_objects(self, small):
        grid, dataset, kspin, labeling = small
        keyword = popular_keywords(dataset, 1)[0]
        nvd = kspin.index.nvd(keyword)
        index = KeywordLabelIndex(keyword, labeling, nvd)
        assert index.num_objects == len(list(nvd.live_objects()))
        assert index.num_entries() >= index.num_objects  # >=1 hub each
        assert index.num_hubs > 0
        assert index.memory_bytes() > 0
        assert index.is_fresh(nvd)
        other = kspin.index.nvd(popular_keywords(dataset, 2)[1])
        assert not index.is_fresh(other)

    def test_heap_pops_exact_ascending(self, small):
        grid, dataset, kspin, labeling = small
        keyword = popular_keywords(dataset, 1)[0]
        nvd = kspin.index.nvd(keyword)
        index = KeywordLabelIndex(keyword, labeling, nvd)
        query_vertex = 17
        heap = LabelHeap(keyword, nvd, query_vertex, labeling, index)
        truth = dijkstra_all(grid, query_vertex)
        popped = []
        while not heap.empty():
            floor = heap.min_key()
            item = heap.pop()
            if item is None:
                break
            obj, dist = item
            # MINKEY(H) is a valid LB; pop may skip duplicate cursors.
            assert dist >= floor
            assert dist == pytest.approx(truth[obj])
            popped.append((obj, dist))
        assert popped == sorted(popped, key=lambda p: (p[1], p[0]))
        assert {obj for obj, _ in popped} == set(nvd.live_objects())
        assert heap.extractions >= len(popped)
        assert heap.inserted_count >= heap.extractions
        assert heap.lower_bound_computations == heap.inserted_count

    def test_heap_skips_deleted_objects(self, small):
        grid, dataset, _, labeling = small
        # Private KSpin: the tombstone below must not leak into the
        # class-shared fixture's diagrams.
        kspin = KSpin(
            grid, dataset, oracle=DijkstraOracle(grid),
            lower_bounder=AltLowerBounder(grid, num_landmarks=4), rho=3,
        )
        keyword = popular_keywords(dataset, 1)[0]
        nvd = kspin.index.nvd(keyword)
        index = KeywordLabelIndex(keyword, labeling, nvd)
        victim = min(nvd.live_objects())
        nvd.delete_object(victim)
        heap = LabelHeap(keyword, nvd, 0, labeling, index)
        seen = set()
        while (item := heap.pop()) is not None:
            seen.add(item[0])
        assert victim not in seen
        assert seen == set(nvd.live_objects())

    def test_seeding_rejects_non_label_oracle(self, small):
        grid, dataset, _, _ = small
        with pytest.raises(ValueError, match="hub-labeling oracle"):
            KSpin(grid, dataset, oracle=DijkstraOracle(grid), seeding="labels")
        with pytest.raises(ValueError, match="unknown seeding"):
            KSpin(grid, dataset, oracle=DijkstraOracle(grid), seeding="magic")

    def test_set_seeding_swaps_backend_in_place(self, small):
        """The `repro serve --seeding labels` path for *loaded* indexes:
        swap the generator after construction, answers unchanged."""
        grid, dataset, kspin, _ = small
        with pytest.raises(ValueError, match="hub-labeling oracle"):
            kspin.set_seeding("labels")  # dijkstra oracle: refused

        keyword = popular_keywords(dataset, 1)[0]
        query = Query(vertex=0, keywords=(keyword,), k=3)
        labeled = KSpin(
            grid, dataset, oracle=CompositeOracle(grid),
            lower_bounder=AltLowerBounder(grid, num_landmarks=4), rho=3,
        )
        expected = labeled.execute(query).pairs()
        labeled.set_seeding("labels")
        generator = labeled.heap_generator
        assert isinstance(generator, LabelHeapGenerator)
        assert labeled.execute(query).pairs() == expected
        assert generator.label_heaps > 0
        labeled.set_seeding("nvd")
        assert labeled.execute(query).pairs() == expected


# ----------------------------------------------------------------------
# Layer 3: composite routing
# ----------------------------------------------------------------------
class TestCompositeOracle:
    def test_p2p_exact_and_counted(self, world, composite):
        dij = DijkstraOracle(world.graph)
        rng = random.Random(13)
        n = world.graph.num_vertices
        before = composite.route_counts["p2p_phl"] + composite.route_counts["p2p_ch"]
        checked = 0
        for _ in range(12):
            s, t = rng.randrange(n), rng.randrange(n)
            assert composite.distance(s, t) == pytest.approx(dij.distance(s, t))
            checked += 1
        after = composite.route_counts["p2p_phl"] + composite.route_counts["p2p_ch"]
        assert after == before + checked

    def test_calibrate_picks_a_measured_backend(self, world):
        oracle = CompositeOracle(world.graph)
        pairs = [(0, i) for i in range(1, 9)]
        timings = oracle.calibrate(pairs, repeats=2)
        assert set(timings) == {"phl", "ch"}
        assert oracle.p2p_backend == min(
            timings, key=lambda k: (timings[k], k)
        )
        with pytest.raises(ValueError):
            oracle.calibrate([])

    def test_batch_routes_are_exact(self, world, composite):
        dij = DijkstraOracle(world.graph)
        rng = random.Random(23)
        n = world.graph.num_vertices
        sources = [rng.randrange(n) for _ in range(20)]
        targets = [rng.randrange(n) for _ in range(20)]
        got = composite.distances_many(sources, targets)
        want = dij.distances_many(sources, targets)
        assert got == pytest.approx(want)
        with pytest.raises(ValueError, match="equal lengths"):
            composite.distances_many([0, 1], [2])

    def test_knn_always_routes_to_labels(self, world, composite):
        dij = DijkstraOracle(world.graph)
        rng = random.Random(29)
        n = world.graph.num_vertices
        candidates = sorted(rng.sample(range(n), 25))
        before = composite.route_counts["knn_labels"]
        got = composite.knn_many([3, 50], candidates, 4)
        assert composite.route_counts["knn_labels"] == before + 2
        want = dij.knn_many([3, 50], candidates, 4)
        for got_row, want_row in zip(got, want):
            assert [obj for obj, _ in got_row] == [obj for obj, _ in want_row]
            for (_, gd), (_, wd) in zip(got_row, want_row):
                assert gd == pytest.approx(wd)

    def test_memory_accounts_for_both_indexes(self, world, composite):
        assert composite.memory_bytes() >= composite.labeling.memory_bytes()
