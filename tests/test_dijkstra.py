"""Tests for the shortest-path primitives and graph generators on small inputs."""

import math

import pytest

from repro.graph import (
    INFINITY,
    RoadNetwork,
    dijkstra_all,
    dijkstra_distance,
    dijkstra_to_targets,
    multi_source_dijkstra,
    network_expansion_knn,
    perturbed_grid_network,
)
from repro.graph.dijkstra import dijkstra_within


def line_graph(n: int = 5) -> RoadNetwork:
    g = RoadNetwork(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, float(i + 1))
    return g


class TestDijkstraAll:
    def test_line_distances(self):
        g = line_graph()
        assert dijkstra_all(g, 0) == [0.0, 1.0, 3.0, 6.0, 10.0]

    def test_unreachable_is_infinite(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 1.0)
        distances = dijkstra_all(g, 0)
        assert distances[2] == INFINITY

    def test_source_distance_zero(self):
        g = line_graph()
        for s in g.vertices():
            assert dijkstra_all(g, s)[s] == 0.0

    def test_triangle_takes_shortcut(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(0, 2, 5.0)
        assert dijkstra_all(g, 0)[2] == 2.0


class TestPointToPoint:
    def test_same_vertex(self):
        assert dijkstra_distance(line_graph(), 2, 2) == 0.0

    def test_matches_full_search(self):
        g = perturbed_grid_network(6, 6, seed=1)
        full = dijkstra_all(g, 0)
        for t in range(g.num_vertices):
            assert dijkstra_distance(g, 0, t) == pytest.approx(full[t])

    def test_unreachable(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 1.0)
        assert dijkstra_distance(g, 0, 2) == INFINITY


class TestTargets:
    def test_to_targets_subset(self):
        g = line_graph()
        result = dijkstra_to_targets(g, 0, [2, 4])
        assert result == {2: 3.0, 4: 10.0}

    def test_source_in_targets(self):
        g = line_graph()
        assert dijkstra_to_targets(g, 1, [1]) == {1: 0.0}

    def test_unreachable_target_infinite(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 1.0)
        assert dijkstra_to_targets(g, 0, [2]) == {2: INFINITY}

    def test_empty_targets(self):
        assert dijkstra_to_targets(line_graph(), 0, []) == {}


class TestMultiSource:
    def test_requires_sources(self):
        with pytest.raises(ValueError):
            multi_source_dijkstra(line_graph(), [])

    def test_owners_are_nearest_sources(self):
        g = perturbed_grid_network(5, 5, seed=3)
        sources = [0, g.num_vertices - 1, g.num_vertices // 2]
        distances, owners = multi_source_dijkstra(g, sources)
        per_source = {s: dijkstra_all(g, s) for s in sources}
        for v in g.vertices():
            best = min(per_source[s][v] for s in sources)
            assert distances[v] == pytest.approx(best)
            assert per_source[owners[v]][v] == pytest.approx(best)

    def test_single_source_matches_dijkstra_all(self):
        g = line_graph()
        distances, owners = multi_source_dijkstra(g, [0])
        assert distances == dijkstra_all(g, 0)
        assert all(o == 0 for o in owners)

    def test_unreachable_owner_is_minus_one(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 1.0)
        _, owners = multi_source_dijkstra(g, [0])
        assert owners[2] == -1


class TestSubgraphDijkstra:
    def test_restricted_to_subgraph(self):
        g = RoadNetwork(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(0, 3, 1.0)
        g.add_edge(3, 2, 1.0)
        sub = g.subgraph_adjacency([0, 1, 2])
        distances = dijkstra_within(sub, 0)
        assert distances == {0: 0.0, 1: 1.0, 2: 2.0}  # path via 3 unavailable


class TestNetworkExpansion:
    def test_finds_k_nearest_matches(self):
        g = line_graph(6)
        objects = {2, 4, 5}
        result = network_expansion_knn(g, 0, 2, objects.__contains__)
        full = dijkstra_all(g, 0)
        expected = sorted(((full[o], o) for o in objects))[:2]
        assert [(v, d) for v, d in result] == [(o, d) for d, o in expected]

    def test_k_zero(self):
        assert network_expansion_knn(line_graph(), 0, 0, lambda v: True) == []

    def test_fewer_matches_than_k(self):
        g = line_graph(4)
        result = network_expansion_knn(g, 0, 10, {3}.__contains__)
        assert result == [(3, 6.0)]

    def test_results_sorted_by_distance(self):
        g = perturbed_grid_network(6, 6, seed=5)
        objects = set(range(0, g.num_vertices, 5))
        result = network_expansion_knn(g, 17, 5, objects.__contains__)
        distances = [d for _, d in result]
        assert distances == sorted(distances)


class TestGenerators:
    def test_grid_connected_and_sized(self):
        g = perturbed_grid_network(8, 9, seed=2)
        assert g.num_vertices == 72
        assert g.is_connected()

    def test_grid_deterministic(self):
        a = perturbed_grid_network(5, 5, seed=11)
        b = perturbed_grid_network(5, 5, seed=11)
        assert list(a.edges()) == list(b.edges())

    def test_grid_seed_changes_topology(self):
        a = perturbed_grid_network(6, 6, seed=1)
        b = perturbed_grid_network(6, 6, seed=2)
        assert list(a.edges()) != list(b.edges())

    def test_grid_low_average_degree(self):
        g = perturbed_grid_network(20, 20, seed=4)
        average_degree = 2 * g.num_edges / g.num_vertices
        assert 1.5 < average_degree < 4.5

    def test_grid_rejects_degenerate(self):
        with pytest.raises(ValueError):
            perturbed_grid_network(1, 5)

    def test_geometric_connected(self):
        from repro.graph import random_geometric_network

        g = random_geometric_network(150, seed=6)
        assert g.num_vertices == 150
        assert g.is_connected()

    def test_geometric_rejects_tiny(self):
        from repro.graph import random_geometric_network

        with pytest.raises(ValueError):
            random_geometric_network(1)

    def test_all_weights_positive(self):
        g = perturbed_grid_network(7, 7, seed=9)
        assert all(w > 0 for _, _, w in g.edges())
        assert all(not math.isnan(w) for _, _, w in g.edges())
