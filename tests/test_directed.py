"""Tests for the directed road-network extension."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query
from repro.directed import (
    DirectedAltLowerBounder,
    DirectedApproximateNVD,
    DirectedDijkstraOracle,
    DirectedKSpin,
    DirectedRoadNetwork,
    directed_distance,
    forward_dijkstra_all,
    from_undirected,
    reverse_dijkstra_all,
    reverse_multi_source,
    with_one_way_streets,
)
from repro.graph import RoadNetworkError, dijkstra_all, perturbed_grid_network
from repro.text import KeywordDataset

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture(scope="module")
def directed_grid():
    base = perturbed_grid_network(7, 7, seed=29)
    return with_one_way_streets(base, fraction=0.4, seed=29)


def brute_force_directed_bknn(graph, dataset, q, k, keywords, conjunctive=False):
    distances = forward_dijkstra_all(graph, q)
    matcher = dataset.contains_all if conjunctive else dataset.contains_any
    matches = sorted(
        (distances[o], o)
        for o in dataset.objects()
        if matcher(o, keywords) and distances[o] < math.inf
    )
    return [(o, d) for d, o in matches[:k]]


class TestDirectedGraph:
    def test_one_way_asymmetry(self):
        g = DirectedRoadNetwork(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        assert directed_distance(g, 0, 2) == pytest.approx(2.0)
        assert directed_distance(g, 2, 0) == pytest.approx(1.0)

    def test_validation(self):
        g = DirectedRoadNetwork(2)
        with pytest.raises(RoadNetworkError):
            g.add_edge(0, 0, 1.0)
        with pytest.raises(RoadNetworkError):
            g.add_edge(0, 1, -1.0)
        with pytest.raises(RoadNetworkError):
            g.add_edge(0, 5, 1.0)

    def test_parallel_arcs_keep_minimum(self):
        g = DirectedRoadNetwork(2)
        g.add_edge(0, 1, 5.0)
        g.add_edge(0, 1, 3.0)
        g.add_edge(0, 1, 9.0)
        assert g.edge_weight(0, 1) == 3.0
        assert g.num_edges == 1
        assert g.edge_weight(1, 0) is None

    def test_in_and_out_edges_consistent(self, directed_grid):
        g = directed_grid
        out_pairs = {(u, v) for u, v, _ in g.edges()}
        in_pairs = {
            (u, v) for v in g.vertices() for u, _ in g.in_edges(v)
        }
        assert out_pairs == in_pairs

    def test_from_undirected_symmetric(self):
        base = perturbed_grid_network(4, 4, seed=2)
        g = from_undirected(base)
        assert g.num_edges == 2 * base.num_edges
        for u, v, w in base.edges():
            assert g.edge_weight(u, v) == w
            assert g.edge_weight(v, u) == w
        assert g.coordinates(3) == base.coordinates(3)

    def test_one_way_network_strongly_connected(self, directed_grid):
        assert directed_grid.is_strongly_connected()

    def test_one_way_fraction_validation(self):
        base = perturbed_grid_network(3, 3, seed=1)
        with pytest.raises(ValueError):
            with_one_way_streets(base, fraction=1.5)

    def test_one_ways_exist(self, directed_grid):
        g = directed_grid
        one_way = sum(
            1 for u, v, _ in g.edges() if g.edge_weight(v, u) is None
        )
        assert one_way > 0


class TestDirectedSearches:
    def test_forward_matches_undirected_on_symmetric_graph(self):
        base = perturbed_grid_network(5, 5, seed=3)
        g = from_undirected(base)
        assert forward_dijkstra_all(g, 0) == pytest.approx(dijkstra_all(base, 0))

    def test_reverse_is_forward_transposed(self, directed_grid):
        g = directed_grid
        target = 10
        reverse = reverse_dijkstra_all(g, target)
        rng = random.Random(4)
        for _ in range(10):
            v = rng.randrange(g.num_vertices)
            assert reverse[v] == pytest.approx(directed_distance(g, v, target))

    def test_reverse_multi_source_owners(self, directed_grid):
        g = directed_grid
        objects = [0, 20, 41]
        distances, owners = reverse_multi_source(g, objects)
        per_object = {o: reverse_dijkstra_all(g, o) for o in objects}
        for v in g.vertices():
            best = min(per_object[o][v] for o in objects)
            assert distances[v] == pytest.approx(best)
            if best < math.inf:
                assert per_object[owners[v]][v] == pytest.approx(best)

    def test_reverse_multi_source_validation(self, directed_grid):
        with pytest.raises(ValueError):
            reverse_multi_source(directed_grid, [])


class TestDirectedAlt:
    def test_admissible_for_directed_distance(self, directed_grid):
        g = directed_grid
        alt = DirectedAltLowerBounder(g, num_landmarks=8)
        rng = random.Random(5)
        for _ in range(60):
            u = rng.randrange(g.num_vertices)
            v = rng.randrange(g.num_vertices)
            assert alt.lower_bound(u, v) <= directed_distance(g, u, v) + 1e-9

    def test_zero_for_same_vertex(self, directed_grid):
        alt = DirectedAltLowerBounder(directed_grid, num_landmarks=4)
        assert alt.lower_bound(9, 9) == 0.0

    def test_validation(self, directed_grid):
        with pytest.raises(ValueError):
            DirectedAltLowerBounder(directed_grid, num_landmarks=0)

    def test_memory_counts_both_tables(self, directed_grid):
        alt = DirectedAltLowerBounder(directed_grid, num_landmarks=4)
        assert alt.memory_bytes() == 2 * 4 * directed_grid.num_vertices * 8


class TestDirectedNVD:
    def test_seed_contains_directed_1nn(self, directed_grid):
        g = directed_grid
        rng = random.Random(6)
        objects = sorted(rng.sample(range(g.num_vertices), 10))
        nvd = DirectedApproximateNVD.build(g, objects, rho=3)
        per_object = {o: reverse_dijkstra_all(g, o) for o in objects}
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
        nvd = DirectedApproximateNVD.build(g, objects, rho=3)
        per_object = {o: reverse_dijkstra_all(g, o) for o in objects}
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

    def test_small_keyword_skips_diagram(self, directed_grid):
        nvd = DirectedApproximateNVD.build(directed_grid, [1, 2], rho=5)
        assert nvd.is_small
        assert nvd.seed_objects((0.0, 0.0)) == [1, 2]

    def test_validation(self, directed_grid):
        with pytest.raises(ValueError):
            DirectedApproximateNVD.build(directed_grid, [], rho=5)
        with pytest.raises(ValueError):
            DirectedApproximateNVD.build(directed_grid, [1], rho=0)

    def test_delete_and_rebuild(self, directed_grid):
        rng = random.Random(8)
        objects = sorted(rng.sample(range(directed_grid.num_vertices), 8))
        nvd = DirectedApproximateNVD.build(directed_grid, objects, rho=3)
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
        kspin = DirectedKSpin(
            directed_grid,
            dataset,
            lower_bounder=DirectedAltLowerBounder(directed_grid, num_landmarks=8),
            rho=3,
        )
        return directed_grid, dataset, kspin

    @pytest.mark.parametrize("conjunctive", [False, True])
    def test_bknn_matches_brute_force(self, world, conjunctive):
        g, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        rng = random.Random(9)
        for _ in range(10):
            q = rng.randrange(g.num_vertices)
            expected = brute_force_directed_bknn(
                g, dataset, q, 5, keywords, conjunctive=conjunctive
            )
            mode = "and" if conjunctive else "or"
            actual = kspin.execute(Query(q, keywords, k=5, mode=mode)).pairs()
            assert [o for o, _ in actual] == [o for o, _ in expected] or (
                [d for _, d in actual] == pytest.approx([d for _, d in expected])
            ), (q, actual, expected)

    def test_topk_matches_brute_force(self, world):
        g, dataset, kspin = world
        keywords = popular_keywords(dataset, 2)
        impacts = kspin.relevance.query_impacts(keywords)
        rng = random.Random(10)
        for _ in range(8):
            q = rng.randrange(g.num_vertices)
            distances = forward_dijkstra_all(g, q)
            scored = sorted(
                (distances[o] / tr, o)
                for o in dataset.objects()
                if distances[o] < math.inf
                and (tr := kspin.relevance.textual_relevance(keywords, o, impacts)) > 0
            )
            expected = [(o, s) for s, o in scored[:5]]
            actual = kspin.execute(Query(q, keywords, k=5, kind="topk")).pairs()
            assert [s for _, s in actual] == pytest.approx(
                [s for _, s in expected]
            ), (q, actual, expected)

    def test_asymmetry_matters(self):
        """A one-way loop: object reachable cheaply one way only."""
        g = DirectedRoadNetwork(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 3, 1.0)
        g.add_edge(3, 0, 1.0)  # one big one-way ring
        for v in g.vertices():
            g.set_coordinates(v, float(v % 2), float(v // 2))
        dataset = KeywordDataset({1: ["cafe"], 3: ["cafe"]})
        kspin = DirectedKSpin(g, dataset, rho=1)
        # From 0, vertex 1 is 1 hop forward; vertex 3 is 3 hops.
        assert kspin.execute(Query(0, ["cafe"], k=2)).pairs() == [(1, 1.0), (3, 3.0)]
        # From 2, the ring makes vertex 3 closest.
        assert kspin.execute(Query(2, ["cafe"], k=2)).pairs() == [(3, 1.0), (1, 3.0)]

    def test_deletion(self, world):
        g, dataset, kspin = world
        keywords = popular_keywords(dataset, 1)
        victim = dataset.inverted_list(keywords[0])[0]
        kspin.delete_object(victim)
        result = kspin.execute(Query(0, keywords, k=dataset.inverted_size(keywords[0]))).pairs()
        assert victim not in {o for o, _ in result}

    def test_stats_and_memory(self, world):
        _, dataset, kspin = world
        kspin.execute(Query(0, popular_keywords(dataset, 2), k=5))
        assert kspin.last_stats.distance_computations >= 0
        assert kspin.memory_bytes() > 0

    def test_oracle_counts(self, directed_grid):
        oracle = DirectedDijkstraOracle(directed_grid)
        oracle.distance(0, 5)
        assert oracle.query_count == 1
        assert oracle.memory_bytes() == 0
        assert oracle.distance(3, 3) == 0.0


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_directed_bknn_property(seed):
    """Directed K-SPIN equals directed brute force on random worlds."""
    base = perturbed_grid_network(5, 5, seed=seed % 13)
    g = with_one_way_streets(base, fraction=0.5, seed=seed)
    dataset = make_dataset(base, seed=seed, object_fraction=0.4, vocabulary=6)
    kspin = DirectedKSpin(
        g,
        dataset,
        lower_bounder=DirectedAltLowerBounder(g, num_landmarks=4, seed=seed),
        rho=3,
    )
    rng = random.Random(seed)
    keywords = [f"kw{rng.randrange(6)}" for _ in range(rng.randint(1, 2))]
    q = rng.randrange(g.num_vertices)
    expected = brute_force_directed_bknn(g, dataset, q, 4, keywords)
    actual = kspin.execute(Query(q, keywords, k=4)).pairs()
    assert [d for _, d in actual] == pytest.approx([d for _, d in expected]), (
        keywords,
        actual,
        expected,
    )
