"""One-way streets through the one stack.

A :class:`RoadNetwork` built with ``add_arc`` has directional distances
``d(u -> v)``; the searches, ALT, the NVD, the keyword index, ``KSpin``
and everything that wraps a ``KSpin`` (``Engine``, the cluster,
persistence) must answer by ``d(query -> object)``.  Ground truth is
:mod:`repro.core.reference`, which runs a forward ``dijkstra_all``.
"""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query, UpdateOp
from repro.baselines import FsFbs, GTreeSpatialKeyword, Road
from repro.core import (
    BooleanExpression,
    KSpin,
    brute_force_bknn,
    brute_force_boolean_bknn,
    brute_force_top_k,
    results_equivalent,
)
from repro.distance import (
    CompositeOracle,
    ContractionHierarchy,
    DijkstraOracle,
    GTree,
    HubLabeling,
)
from repro.graph import (
    RoadNetwork,
    RoadNetworkError,
    dijkstra_all,
    dijkstra_distance,
    multi_source_dijkstra,
    perturbed_grid_network,
    with_one_way_streets,
    write_dimacs,
)
from repro.lowerbound import AltLowerBounder
from repro.nvd import ApproximateNVD
from repro.persist import load_kspin_bytes, save_kspin_bytes
from repro.serve import ClusterCoordinator, Engine
from repro.text import KeywordDataset

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture(scope="module")
def directed_grid():
    base = perturbed_grid_network(7, 7, seed=29)
    return with_one_way_streets(base, fraction=0.4, seed=29)


def one_way_kspin(graph, dataset, landmarks=8, **options):
    return KSpin(
        graph,
        dataset,
        oracle=DijkstraOracle(graph),
        lower_bounder=AltLowerBounder(graph, num_landmarks=landmarks),
        rho=3,
        **options,
    )


class TestDirectedGraph:
    def test_one_way_asymmetry(self):
        g = RoadNetwork(3)
        g.add_arc(0, 1, 1.0)
        g.add_arc(1, 2, 1.0)
        g.add_arc(2, 0, 1.0)
        assert dijkstra_distance(g, 0, 2) == pytest.approx(2.0)
        assert dijkstra_distance(g, 2, 0) == pytest.approx(1.0)

    def test_validation(self):
        g = RoadNetwork(2)
        with pytest.raises(RoadNetworkError):
            g.add_arc(0, 0, 1.0)
        with pytest.raises(RoadNetworkError):
            g.add_arc(0, 1, -1.0)
        with pytest.raises(RoadNetworkError):
            g.add_arc(0, 5, 1.0)
        assert g.symmetric  # a refused arc splits nothing

    def test_parallel_arcs_keep_minimum(self):
        g = RoadNetwork(2)
        g.add_arc(0, 1, 5.0)
        g.add_arc(0, 1, 3.0)
        g.add_arc(0, 1, 9.0)
        assert g.edge_weight(0, 1) == 3.0
        assert g.in_neighbors(1) == [(0, 3.0)]
        assert g.num_edges == 1
        assert g.edge_weight(1, 0) is None

    def test_in_and_out_edges_consistent(self, directed_grid):
        g = directed_grid
        out_arcs = set(g.edges())
        in_arcs = {(u, v, w) for v in g.vertices() for u, w in g.in_neighbors(v)}
        assert out_arcs == in_arcs
        assert g.num_edges == len(out_arcs)

    def test_undirected_graph_is_the_same_program(self):
        """Built with add_edge only, a graph holds one adjacency, one CSR
        view and one ALT table: nothing is paid for orientation."""
        g = perturbed_grid_network(4, 4, seed=2)
        assert g.symmetric
        assert all(g.in_neighbors(v) is g.neighbors(v) for v in g.vertices())
        assert g.csr_in() is g.csr()
        alt = AltLowerBounder(g, 4)
        assert alt.memory_bytes() == len(alt.landmarks) * g.num_vertices * 8
        clone = pickle.loads(pickle.dumps(g))
        assert clone.symmetric and clone.in_neighbors(3) is clone.neighbors(3)

    def test_first_arc_splits_the_views(self):
        g = perturbed_grid_network(4, 4, seed=2)
        edges, out_view = g.num_edges, g.csr()
        g.add_arc(0, 15, 0.25)
        assert not g.symmetric
        assert g.num_edges == 2 * edges + 1 == len(list(g.edges()))
        assert g.in_neighbors(15)[-1] == (0, 0.25)
        assert (0, 0.25) not in g.neighbors(15)
        assert g.csr() is not out_view and g.csr_in() is not g.csr()
        # add_edge on a one-way graph still means a two-way street.
        g.add_edge(3, 12, 0.5)
        assert g.edge_weight(3, 12) == g.edge_weight(12, 3) == 0.5
        in_view = g.csr_in()
        g.add_arc(12, 3, 0.125)  # lowers one direction only
        assert (g.edge_weight(12, 3), g.edge_weight(3, 12)) == (0.125, 0.5)
        assert g.csr_in() is not in_view  # mutation drops both caches

    def test_one_way_network_strongly_connected(self, directed_grid):
        g = directed_grid
        assert max(dijkstra_all(g, 0)) < math.inf
        assert max(dijkstra_all(g, 0, reverse=True)) < math.inf

    def test_one_way_fraction_validation(self):
        base = perturbed_grid_network(3, 3, seed=1)
        with pytest.raises(ValueError):
            with_one_way_streets(base, fraction=1.5)

    def test_one_ways_exist(self, directed_grid):
        g = directed_grid
        assert not g.symmetric
        one_way = sum(1 for u, v, _ in g.edges() if g.edge_weight(v, u) is None)
        assert one_way > 0

    @pytest.mark.parametrize(
        "build",
        [
            ContractionHierarchy,
            HubLabeling,
            GTree,
            CompositeOracle,
            lambda g: GTreeSpatialKeyword(g, KeywordDataset({0: ["a"]})),
            lambda g: Road(g, KeywordDataset({0: ["a"]})),
            lambda g: FsFbs(g, KeywordDataset({0: ["a"]})),
            lambda g: write_dimacs(g, "unwritten.gr"),
        ],
        ids=["CH", "PHL", "GTree", "Composite", "GTreeSK", "ROAD", "FS-FBS",
             "dimacs"],
    )
    def test_symmetric_distance_indexes_refuse(self, directed_grid, build):
        with pytest.raises(RoadNetworkError, match="symmetric"):
            build(directed_grid)

    def test_label_seeding_unreachable(self, directed_grid):
        dataset = KeywordDataset({1: ["cafe"]})
        with pytest.raises(ValueError, match="hub-labeling oracle"):
            one_way_kspin(directed_grid, dataset, seeding="labels")


class TestDirectedSearches:
    def test_forward_matches_undirected_on_symmetric_graph(self):
        g = perturbed_grid_network(5, 5, seed=3)
        assert dijkstra_all(g, 0, reverse=True) == dijkstra_all(g, 0)

    def test_reverse_is_forward_transposed(self, directed_grid):
        g = directed_grid
        target = 10
        reverse = dijkstra_all(g, target, reverse=True)
        assert reverse != pytest.approx(dijkstra_all(g, target))
        rng = random.Random(4)
        for _ in range(10):
            v = rng.randrange(g.num_vertices)
            assert reverse[v] == pytest.approx(dijkstra_distance(g, v, target))

    def test_reverse_multi_source_owners(self, directed_grid):
        g = directed_grid
        objects = [0, 20, 41]
        distances, owners = multi_source_dijkstra(g, objects, reverse=True)
        per_object = {o: dijkstra_all(g, o, reverse=True) for o in objects}
        for v in g.vertices():
            best = min(per_object[o][v] for o in objects)
            assert distances[v] == pytest.approx(best)
            if best < math.inf:
                assert per_object[owners[v]][v] == pytest.approx(best)

    def test_reverse_multi_source_validation(self, directed_grid):
        with pytest.raises(ValueError):
            multi_source_dijkstra(directed_grid, [], reverse=True)


class TestDirectedAlt:
    def test_admissible_for_directed_distance(self, directed_grid):
        """Scalar, one-to-many and pairwise forms all bound d(u -> v),
        agree with each other, and are not the symmetric bound."""
        g = directed_grid
        alt = AltLowerBounder(g, num_landmarks=8)
        rng = random.Random(5)
        pairs = [
            (rng.randrange(g.num_vertices), rng.randrange(g.num_vertices))
            for _ in range(60)
        ]
        scalar = [alt.lower_bound(u, v) for u, v in pairs]
        for (u, v), bound in zip(pairs, scalar):
            assert 0.0 <= bound <= dijkstra_distance(g, u, v) + 1e-9
        sources, targets = [u for u, _ in pairs], [v for _, v in pairs]
        assert alt.lower_bounds_many(sources, targets) == pytest.approx(scalar)
        assert alt.lower_bounds_to_many(sources[0], targets) == pytest.approx(
            [alt.lower_bound(sources[0], v) for v in targets]
        )
        assert scalar != pytest.approx([alt.lower_bound(v, u) for u, v in pairs])

    def test_zero_for_same_vertex(self, directed_grid):
        alt = AltLowerBounder(directed_grid, num_landmarks=4)
        assert alt.lower_bound(9, 9) == 0.0

    def test_validation(self, directed_grid):
        with pytest.raises(ValueError):
            AltLowerBounder(directed_grid, num_landmarks=0)

    def test_memory_counts_both_tables(self, directed_grid):
        alt = AltLowerBounder(directed_grid, num_landmarks=4)
        assert alt.memory_bytes() == 2 * 4 * directed_grid.num_vertices * 8


class TestDirectedNVD:
    def test_seed_contains_directed_1nn(self, directed_grid):
        g = directed_grid
        rng = random.Random(6)
        objects = sorted(rng.sample(range(g.num_vertices), 10))
        nvd = ApproximateNVD.build(g, objects, rho=3)
        per_object = {o: dijkstra_all(g, o, reverse=True) for o in objects}
        for v in g.vertices():
            best = min(per_object[o][v] for o in objects)
            seeds = nvd.seed_objects(g.coordinates(v))
            assert any(
                per_object[s][v] == pytest.approx(best) for s in seeds
            )
            assert len(seeds) <= 3

    def test_directed_property2(self, directed_grid):
        """The k-th reachable NN is adjacent to one of the first k-1."""
        g = directed_grid
        rng = random.Random(7)
        objects = sorted(rng.sample(range(g.num_vertices), 8))
        nvd = ApproximateNVD.build(g, objects, rho=3)
        per_object = {o: dijkstra_all(g, o, reverse=True) for o in objects}
        for _ in range(5):
            q = rng.randrange(g.num_vertices)
            ranking = sorted(
                (o for o in objects if per_object[o][q] < math.inf),
                key=lambda o: per_object[o][q],
            )
            for k in range(1, len(ranking)):
                previous = set(ranking[:k])
                assert any(
                    ranking[k] in nvd.adjacency[p] for p in previous
                ) or ranking[k] in previous

    def test_adjacency_is_mutual_and_deterministic(self, directed_grid):
        objects = sorted(random.Random(7).sample(range(directed_grid.num_vertices), 8))
        fingerprints = set()
        for _ in range(2):
            nvd = ApproximateNVD.build(directed_grid, objects, rho=3)
            assert all(a in nvd.adjacency[b] for a in objects for b in nvd.adjacency[a])
            fingerprints.add(nvd.structural_fingerprint())
        assert len(fingerprints) == 1

    def test_small_keyword_skips_diagram(self, directed_grid):
        nvd = ApproximateNVD.build(directed_grid, [1, 2], rho=5)
        assert nvd.is_small
        assert nvd.seed_objects((0.0, 0.0)) == [1, 2]

    def test_validation(self, directed_grid):
        with pytest.raises(ValueError):
            ApproximateNVD.build(directed_grid, [], rho=5)
        with pytest.raises(ValueError):
            ApproximateNVD.build(directed_grid, [1], rho=0)

    def test_delete_and_rebuild(self, directed_grid):
        rng = random.Random(8)
        objects = sorted(rng.sample(range(directed_grid.num_vertices), 8))
        nvd = ApproximateNVD.build(directed_grid, objects, rho=3)
        nvd.delete_object(objects[0])
        assert nvd.is_deleted(objects[0])
        rebuilt = nvd.rebuild(directed_grid)
        assert rebuilt.live_objects() == set(objects[1:])
        with pytest.raises(KeyError):
            nvd.delete_object(-5)


class TestDirectedKSpin:
    @pytest.fixture(scope="class")
    def world(self, directed_grid):
        base = perturbed_grid_network(7, 7, seed=29)
        dataset = make_dataset(base, seed=31, object_fraction=0.3, vocabulary=10)
        return directed_grid, dataset, one_way_kspin(directed_grid, dataset)

    @pytest.mark.parametrize("conjunctive", [False, True])
    def test_bknn_matches_brute_force(self, world, conjunctive):
        g, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(9)
        for _ in range(10):
            q = rng.randrange(g.num_vertices)
            expected = brute_force_bknn(
                g, dataset, q, 5, keywords, conjunctive=conjunctive
            )
            mode = "and" if conjunctive else "or"
            actual = kspin.execute(Query(q, keywords, k=5, mode=mode)).pairs()
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_topk_matches_brute_force(self, world):
        g, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(10)
        for _ in range(8):
            q = rng.randrange(g.num_vertices)
            expected = brute_force_top_k(g, dataset, kspin.relevance, q, 5, keywords)
            actual = kspin.execute(Query(q, keywords, k=5, kind="topk")).pairs()
            assert results_equivalent(actual, expected), (q, actual, expected)

    def test_asymmetry_matters(self):
        """A one-way loop: object reachable cheaply one way only."""
        g = RoadNetwork(4)
        g.add_arc(0, 1, 1.0)
        g.add_arc(1, 2, 1.0)
        g.add_arc(2, 3, 1.0)
        g.add_arc(3, 0, 1.0)  # one big one-way ring
        for v in g.vertices():
            g.set_coordinates(v, float(v % 2), float(v // 2))
        dataset = KeywordDataset({1: ["cafe"], 3: ["cafe"]})
        kspin = KSpin(g, dataset, DijkstraOracle(g), rho=1)
        # From 0, vertex 1 is 1 hop forward; vertex 3 is 3 hops.
        assert kspin.execute(Query(0, ["cafe"], k=2)).pairs() == [(1, 1.0), (3, 3.0)]
        # From 2, the ring makes vertex 3 closest.
        assert kspin.execute(Query(2, ["cafe"], k=2)).pairs() == [(3, 1.0), (1, 3.0)]

    def test_deletion(self, directed_grid):
        base = perturbed_grid_network(7, 7, seed=29)
        dataset = make_dataset(base, seed=31, object_fraction=0.3, vocabulary=10)
        kspin = one_way_kspin(directed_grid, dataset)
        keywords = popular_keywords(dataset, 1)
        victim = dataset.inverted_list(keywords[0])[0]
        kspin.apply(UpdateOp("delete", object=victim))
        result = kspin.execute(Query(0, keywords, k=dataset.inverted_size(keywords[0]))).pairs()
        assert victim not in {o for o, _ in result}

    def test_stats_and_memory(self, world):
        _, dataset, kspin = world
        kspin.execute(Query(0, popular_keywords(dataset, 2), k=5))
        assert kspin.last_stats.distance_computations >= 0
        assert kspin.memory_bytes() > 0

    def test_oracle_counts(self, directed_grid):
        oracle = DijkstraOracle(directed_grid)
        assert oracle.distance(0, 5) != oracle.distance(5, 0)
        assert oracle.query_count == 2
        assert oracle.memory_bytes() == 0
        assert oracle.distance(3, 3) == 0.0
        assert oracle.distances_many([0, 5], [5, 0]) == pytest.approx(
            [dijkstra_distance(directed_grid, 0, 5), dijkstra_distance(directed_grid, 5, 0)]
        )

    def test_execute_many_equals_sequential(self, world):
        g, dataset, kspin = world
        queries = _query_mix(g, dataset, random.Random(11), count=24)
        sequential = [kspin.execute(q).pairs() for q in queries]
        assert [r.pairs() for r in kspin.execute_many(queries)] == sequential
        engine = Engine(kspin, cache_size=0)
        assert [r.pairs() for r in engine.execute_many(queries)] == sequential

    def test_save_load_round_trip(self, world):
        g, dataset, kspin = world
        clone = load_kspin_bytes(save_kspin_bytes(kspin))
        assert not clone.graph.symmetric
        assert clone.graph.csr_in().structural_fingerprint() == (
            g.csr_in().structural_fingerprint()
        )
        assert clone.lower_bounder.memory_bytes() == kspin.lower_bounder.memory_bytes()
        for query in _query_mix(g, dataset, random.Random(12), count=12):
            assert clone.execute(query).pairs() == kspin.execute(query).pairs()

    def test_cluster_matches_single_process(self, world):
        g, dataset, kspin = world
        queries = _query_mix(g, dataset, random.Random(13), count=18)
        with ClusterCoordinator(
            kspin, num_workers=2, cache_size=0, supervise=False
        ) as cluster:
            for query in queries:
                assert results_equivalent(
                    cluster.execute(query).pairs(), kspin.execute(query).pairs()
                ), query


def _query_mix(graph, dataset, rng, count):
    popular = popular_keywords(dataset, 4)
    shapes = [("bknn", "or"), ("bknn", "and"), ("topk", "or")]
    return [
        Query(
            rng.randrange(graph.num_vertices),
            tuple(rng.sample(popular, rng.randint(1, 2))),
            k=rng.randint(1, 5),
            kind=kind,
            mode=mode,
        )
        for _ in range(count)
        for kind, mode in [rng.choice(shapes)]
    ]


def _check_against_brute_force(graph, documents, engine, relevance, rng):
    """BkNN (or/and), CNF and top-k answers of ``engine`` equal brute
    force over the shadow ``documents`` (IDF frozen at build time, object
    impacts from the live document — the documented update semantics)."""
    shadow = KeywordDataset(documents)
    for _ in range(4):
        q = rng.randrange(graph.num_vertices)
        for mode in ("or", "and"):
            actual = engine.execute(Query(q, ("kw0", "kw1"), k=4, mode=mode)).pairs()
            expected = brute_force_bknn(
                graph, shadow, q, 4, ["kw0", "kw1"], conjunctive=mode == "and"
            )
            assert results_equivalent(actual, expected), (q, mode, actual, expected)
        distances = dijkstra_all(graph, q)
        impacts = relevance.query_impacts(["kw0", "kw1"])
        scored = sorted(
            (distances[o] / tr, o)
            for o in shadow.objects()
            if (tr := relevance.relevance_from_document(shadow.document(o), impacts)) > 0
        )
        actual = engine.execute(Query(q, ("kw0", "kw1"), k=4, kind="topk")).pairs()
        assert results_equivalent(actual, [(o, s) for s, o in scored[:4]]), (q, actual)


def test_interleaved_updates_match_brute_force():
    """insert / add_keyword / delete / remove_keyword / rebuild between
    queries, through a cached Engine."""
    rng = random.Random(14)
    base = perturbed_grid_network(7, 7, seed=5)
    g = with_one_way_streets(base, fraction=0.5, seed=5)
    seeded = make_dataset(base, seed=5, object_fraction=0.5, vocabulary=4)
    documents = {o: dict(seeded.document(o)) for o in seeded.objects()}
    free = [v for v in g.vertices() if v not in documents]
    kspin = one_way_kspin(
        g, KeywordDataset(documents), landmarks=6, rebuild_threshold=3
    )
    assert not kspin.index.nvd("kw0").is_small
    engine = Engine(kspin, cache_size=64)
    probe = Query(free[0], ("kw0",), k=3)
    for step in range(12):
        engine.execute(probe)
        assert engine.execute(probe).cached
        op = ("insert", "add_keyword", "delete", "remove_keyword")[step % 4]
        if op == "insert":
            obj = free.pop()
            documents[obj] = {"kw0": 1, "kw1": 2}
            engine.apply(UpdateOp("insert", obj, document=documents[obj]))
        elif op == "add_keyword":
            obj = rng.choice(sorted(o for o in documents if "kw0" not in documents[o]))
            documents[obj]["kw0"] = 1
            engine.apply(UpdateOp("add_keyword", obj, keyword="kw0"))
        elif op == "delete":
            obj = rng.choice(sorted(o for o in documents if "kw0" in documents[o]))
            del documents[obj]
            engine.apply(UpdateOp("delete", obj))
        else:
            obj = rng.choice(sorted(o for o in documents if len(documents[o]) > 1
                                    and "kw0" in documents[o]))
            del documents[obj]["kw0"]
            engine.apply(UpdateOp("remove_keyword", obj, keyword="kw0"))
        assert not engine.execute(probe).cached, op
        if step % 5 == 4:
            engine.apply(UpdateOp("rebuild"))
        _check_against_brute_force(g, documents, engine, kspin.relevance, rng)
        groups = [["kw0"], ["kw1", "kw2"]]
        q = rng.randrange(g.num_vertices)
        assert results_equivalent(
            kspin.boolean_bknn(q, 4, groups),
            brute_force_boolean_bknn(
                g, KeywordDataset(documents), q, 4, BooleanExpression(groups)
            ),
        )


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_directed_bknn_property(seed):
    """K-SPIN equals brute force on random one-way worlds."""
    base = perturbed_grid_network(5, 5, seed=seed % 13)
    g = with_one_way_streets(base, fraction=0.5, seed=seed)
    dataset = make_dataset(base, seed=seed, object_fraction=0.4, vocabulary=6)
    kspin = KSpin(
        g,
        dataset,
        oracle=DijkstraOracle(g),
        lower_bounder=AltLowerBounder(g, num_landmarks=4, seed=seed),
        rho=3,
    )
    rng = random.Random(seed)
    keywords = [f"kw{rng.randrange(6)}" for _ in range(rng.randint(1, 2))]
    q = rng.randrange(g.num_vertices)
    expected = brute_force_bknn(g, dataset, q, 4, keywords)
    actual = kspin.execute(Query(q, keywords, k=4)).pairs()
    assert [d for _, d in actual] == pytest.approx([d for _, d in expected]), (
        keywords,
        actual,
        expected,
    )
