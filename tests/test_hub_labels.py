"""Hub-label serving stack: PLL exactness, label seeding, composite.

Three layers, each with its own contract:

* the array-backed :class:`HubLabeling` must return exactly the
  Dijkstra distance under every supported vertex order (hypothesis
  property over random connected graphs);
* label-seeded candidate generation (:class:`LabelHeapGenerator`) must
  be **result-identical** to the paper's NVD+ALT seeding on serving
  workloads — through the bare framework, the Engine, and the cluster —
  and must see every lazy update at the very next query,
  with no rebuild and no second algorithm to fall back to;
* the :class:`CompositeOracle` routes every query class to an exact
  backend, so routing (and :meth:`calibrate`) can only change speed.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings

from repro.api import Query, UpdateOp
from repro.core import KSpin, brute_force_bknn, results_equivalent
from repro.core.label_seeding import LabelHeap, LabelHeapGenerator
from repro.datasets import WorkloadGenerator, load_dataset
from repro.distance import (
    CompositeOracle,
    DijkstraOracle,
    HubLabeling,
    importance_order,
)
from repro.graph import RoadNetwork, dijkstra_all, perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.serve import ClusterCoordinator, Engine
from repro.text import KeywordDataset

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

    def test_cluster_matches_single_process(
        self, kspin_nvd, kspin_labels, workload
    ):
        """Label-seeded workers (forked with numpy label arrays) match
        the NVD-seeded single-process answers."""
        queries = workload[:6]
        with ClusterCoordinator(
            kspin_labels, num_workers=2, cache_size=0, health_interval=5.0,
        ) as cluster:
            for query in queries:
                assert (
                    cluster.execute(query).pairs()
                    == kspin_nvd.execute(query).pairs()
                ), query


def _shadow_answer(graph, documents, query):
    """``repro.core.reference`` over the shadow copy of the documents."""
    return brute_force_bknn(
        graph, KeywordDataset(documents), query.vertex, query.k,
        list(query.keywords), conjunctive=query.conjunctive,
    )


class TestUpdatesNeedNoRebuild:
    def test_every_write_is_visible_to_the_next_query(self, world, composite):
        """delete, revive, insert, add_keyword, remove_keyword: the very
        next label-seeded query sees each, no ``rebuild`` in between."""
        kspin = _kspin(world, composite, "labels")
        generator = kspin.heap_generator
        graph, dataset = world.graph, world.keywords
        documents = {o: dict(dataset.document(o)) for o in dataset.objects()}
        keyword, other = popular_keywords(dataset, 2)
        query = Query(vertex=0, keywords=(keyword,), k=BKNN_K)

        def check():
            answer = kspin.execute(query)
            assert results_equivalent(
                answer.pairs(), _shadow_answer(graph, documents, query)
            )
            assert answer.stats["distance_computations"] == 0
            assert generator.fallback_heaps == 0
            return [obj for obj, _ in answer.pairs()]

        nearest = check()[0]
        saved = documents.pop(nearest)
        kspin.apply(UpdateOp("delete", object=nearest))
        assert nearest not in check()
        documents[nearest] = saved
        kspin.apply(UpdateOp("insert", object=nearest, document=saved))
        assert check()[0] == nearest  # revived
        newcomer = next(
            v for v in graph.neighbors(0) if v[0] not in documents
        )[0]
        documents[newcomer] = {keyword: 1}
        kspin.apply(UpdateOp("insert", object=newcomer, document={keyword: 1}))
        assert newcomer in check()
        del documents[newcomer][keyword]
        documents[newcomer][other] = 1
        kspin.apply(UpdateOp("add_keyword", object=newcomer, keyword=other))
        kspin.apply(UpdateOp("remove_keyword", object=newcomer, keyword=keyword))
        assert newcomer not in check()
        query = Query(vertex=0, keywords=(other,), k=BKNN_K)
        assert newcomer in check()
        assert kspin.index.pending_updates()[keyword] == 4

    def test_invalidate_drops_cached_indexes(self, world, composite):
        label_engine = _kspin(world, composite, "labels")
        generator = label_engine.heap_generator
        keyword = popular_keywords(world.keywords, 1)[0]
        label_engine.execute(Query(vertex=0, keywords=(keyword,), k=3))
        assert generator.label_memory_bytes() > 0
        generator.invalidate([keyword])
        assert generator.label_memory_bytes() == 0
        generator.invalidate(None)  # idempotent on empty cache

    def test_no_oracle_calls_and_no_more_iterations_than_nvd(
        self, kspin_nvd, kspin_labels, workload
    ):
        """Exact keys: the loop never asks the oracle, and examines no
        more candidates than it does behind ALT lower bounds."""
        totals = {"nvd": 0, "labels": 0}
        for query in workload:
            totals["nvd"] += kspin_nvd.execute(query).stats["iterations"]
            stats = kspin_labels.execute(query).stats
            assert stats["distance_computations"] == 0, query
            assert stats["lower_bound_computations"] == stats["heap_insertions"]
            totals["labels"] += stats["iterations"]
        assert 0 < totals["labels"] <= totals["nvd"]

    def test_readers_agree_with_reference_while_a_writer_toggles(
        self, world, composite
    ):
        """Two readers over different vertices share the generator's row
        cache and dense-vector memo while a third thread deletes and
        revives one object: every answer is the reference's answer for
        one of the two states."""
        kspin = _kspin(world, composite, "labels")
        engine = Engine(kspin, cache_size=0)
        graph, dataset = world.graph, world.keywords
        keyword = popular_keywords(dataset, 1)[0]
        documents = {o: dict(dataset.document(o)) for o in dataset.objects()}
        queries = [Query(vertex=v, keywords=(keyword,), k=BKNN_K) for v in (0, 200)]
        victim = engine.execute(queries[0]).pairs()[0][0]
        without = {o: d for o, d in documents.items() if o != victim}
        allowed = [
            [_shadow_answer(graph, state, q) for state in (documents, without)]
            for q in queries
        ]
        stop = threading.Event()
        failures: list = []
        rounds = [0, 0]

        def read(which: int) -> None:
            while not stop.is_set():
                pairs = engine.execute(queries[which]).pairs()
                if not any(results_equivalent(pairs, ok) for ok in allowed[which]):
                    failures.append((which, pairs))
                rounds[which] += 1

        def write() -> None:
            for _ in range(40):
                engine.apply(UpdateOp("delete", object=victim))
                engine.apply(
                    UpdateOp("insert", object=victim, document=documents[victim])
                )
            stop.set()

        threads = [threading.Thread(target=read, args=(w,)) for w in (0, 1)]
        threads.append(threading.Thread(target=write))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert min(rounds) > 0
        assert kspin.heap_generator.fallback_heaps == 0
        assert results_equivalent(
            engine.execute(queries[0]).pairs(), allowed[0][0]
        )


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

    def test_index_snapshots_live_objects(self, small, monkeypatch):
        """The row cache is one gather per (diagram instance,
        ``pending_updates``) pair: reads reuse it, a write or a swapped
        diagram costs the next query exactly one more."""
        grid, dataset, _, labeling = small
        kspin = KSpin(
            grid, dataset, oracle=labeling,
            lower_bounder=AltLowerBounder(grid, num_landmarks=4), rho=3,
            rebuild_threshold=1, seeding="labels",
        )
        gathered = []
        label_rows = labeling.label_rows
        monkeypatch.setattr(
            labeling, "label_rows",
            lambda objects: gathered.append(list(objects)) or label_rows(objects),
        )
        keyword, other = popular_keywords(dataset, 2)
        nvd = kspin.index.nvd(keyword)
        for vertex in (0, 17, 17, 30):
            kspin.execute(Query(vertex=vertex, keywords=(keyword,), k=2))
        assert gathered == [sorted(nvd.live_objects())]
        kspin.execute(Query(vertex=0, keywords=(keyword, other), k=2))
        assert len(gathered) == 2  # the other keyword's first use
        victim = min(nvd.live_objects() - kspin.index.nvd(other).objects)
        kspin.apply(UpdateOp("delete", object=victim))
        for vertex in (0, 17):
            kspin.execute(Query(vertex=vertex, keywords=(keyword, other), k=2))
        assert len(gathered) == 3 and victim not in gathered[-1]
        assert keyword in kspin.apply(UpdateOp("rebuild"))["rebuilt"]
        assert kspin.index.nvd(keyword) is not nvd
        for vertex in (0, 17):
            kspin.execute(Query(vertex=vertex, keywords=(keyword,), k=2))
        assert len(gathered) == 4
        assert gathered[-1] == sorted(kspin.index.nvd(keyword).live_objects())
        assert kspin.heap_generator.label_memory_bytes() > 0

    def test_heap_pops_exact_ascending(self, small):
        grid, dataset, kspin, labeling = small
        keyword = popular_keywords(dataset, 1)[0]
        nvd = kspin.index.nvd(keyword)
        generator = LabelHeapGenerator(kspin.lower_bounder, labeling)
        query_vertex = min(nvd.live_objects())  # q itself is an object
        heap = generator.heap_for(
            keyword, nvd, query_vertex, grid.coordinates(query_vertex)
        )
        assert isinstance(heap, LabelHeap) and heap.exact
        assert heap.inserted_count == len(nvd.live_objects())
        assert heap.lower_bound_computations == heap.inserted_count
        truth = dijkstra_all(grid, query_vertex)
        popped = []
        while not heap.empty():
            floor = heap.min_key()
            obj, dist = heap.pop()
            assert dist == floor  # MINKEY(H) is the next exact distance
            popped.append((obj, dist))
        assert heap.pop() is None and heap.min_key() == float("inf")
        assert len(popped) == heap.inserted_count
        assert popped[0] == (query_vertex, 0.0)
        assert popped == sorted(popped, key=lambda p: (p[1], p[0]))
        expected = sorted((truth[o], o) for o in nvd.live_objects())
        assert results_equivalent(popped, [(o, d) for d, o in expected])

    def test_ties_break_by_object_id_and_unreachable_is_no_result(self):
        """A star with two equal arms and an island: the tie pops in
        object-id order and the island's object is never an answer."""
        graph = RoadNetwork(6)
        for v, (x, y) in enumerate(
            [(0, 0), (1, 0), (-1, 0), (2, 0), (9, 9), (9, 10)]
        ):
            graph.set_coordinates(v, x, y)
        for u, v in ((0, 1), (0, 2), (1, 3), (4, 5)):
            graph.add_edge(u, v, 1.0)
        dataset = KeywordDataset({2: ["a"], 1: ["a"], 3: ["a"], 5: ["a"]})
        labeling = HubLabeling(graph, order="degree")
        kspin = KSpin(
            graph, dataset, oracle=labeling,
            lower_bounder=AltLowerBounder(graph, num_landmarks=2),
            seeding="labels",
        )
        heap = kspin.heap_generator.heap_for(
            "a", kspin.index.nvd("a"), 0, graph.coordinates(0)
        )
        assert [heap.pop() for _ in range(4)] == [
            (1, 1.0), (2, 1.0), (3, 2.0), (5, float("inf")),
        ]
        for kind in ("bknn", "topk"):
            answer = kspin.execute(Query(vertex=0, keywords=("a",), k=4, kind=kind))
            assert [obj for obj, _ in answer.pairs()] == [1, 2, 3]

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
