"""Exactness and API tests for every Network Distance Module oracle.

The core contract: every oracle returns exactly the Dijkstra distance on
every vertex pair.  Verified on fixed grids and on hypothesis-generated
random connected graphs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance import (
    ContractionHierarchy,
    DijkstraOracle,
    GTree,
    HubLabeling,
    verify_oracle,
)
from repro.graph import (
    RoadNetwork,
    dijkstra_all,
    dijkstra_distance,
    perturbed_grid_network,
)


@pytest.fixture(scope="module")
def grid():
    return perturbed_grid_network(7, 7, seed=42)


def all_pairs_sample(graph, rng, count=40):
    return [
        (rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices))
        for _ in range(count)
    ]


ORACLE_FACTORIES = {
    "dijkstra": DijkstraOracle,
    "ch": ContractionHierarchy,
    "hub": HubLabeling,
    "gtree": lambda g: GTree(g, leaf_size=8),
}


@pytest.mark.parametrize("factory_name", sorted(ORACLE_FACTORIES))
def test_oracle_matches_dijkstra_on_grid(grid, factory_name):
    oracle = ORACLE_FACTORIES[factory_name](grid)
    verify_oracle(oracle, grid, all_pairs_sample(grid, random.Random(1)))


@pytest.mark.parametrize("factory_name", sorted(ORACLE_FACTORIES))
def test_oracle_zero_distance_to_self(grid, factory_name):
    oracle = ORACLE_FACTORIES[factory_name](grid)
    assert oracle.distance(5, 5) == 0.0


@pytest.mark.parametrize("factory_name", sorted(ORACLE_FACTORIES))
def test_query_counter_increments(grid, factory_name):
    oracle = ORACLE_FACTORIES[factory_name](grid)
    oracle.reset_counters()
    oracle.distance(0, 10)
    oracle.distance(3, 4)
    assert oracle.query_count == 2
    oracle.reset_counters()
    assert oracle.query_count == 0


@pytest.mark.parametrize("factory_name", ["ch", "hub", "gtree"])
def test_indexed_oracles_report_memory(grid, factory_name):
    oracle = ORACLE_FACTORIES[factory_name](grid)
    assert oracle.memory_bytes() > 0


@st.composite
def connected_graph(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    g = RoadNetwork(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, draw(st.floats(min_value=0.1, max_value=5.0)))
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_edge(u, v, draw(st.floats(min_value=0.1, max_value=5.0)))
    # Scatter coordinates so geometric partitioning has something to cut.
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    for v in g.vertices():
        g.set_coordinates(v, rng.random(), rng.random())
    return g


@given(connected_graph())
@settings(max_examples=30, deadline=None)
def test_ch_exact_on_random_graphs(g):
    ch = ContractionHierarchy(g)
    truth = dijkstra_all(g, 0)
    for t in range(g.num_vertices):
        assert ch.distance(0, t) == pytest.approx(truth[t])


@given(connected_graph())
@settings(max_examples=30, deadline=None)
def test_hub_labeling_exact_on_random_graphs(g):
    hub = HubLabeling(g)
    truth = dijkstra_all(g, 0)
    for t in range(g.num_vertices):
        assert hub.distance(0, t) == pytest.approx(truth[t])


@given(connected_graph())
@settings(max_examples=30, deadline=None)
def test_gtree_exact_on_random_graphs(g):
    gtree = GTree(g, leaf_size=4)
    truth = dijkstra_all(g, 0)
    for t in range(g.num_vertices):
        assert gtree.distance(0, t) == pytest.approx(truth[t])


class TestContractionHierarchy:
    def test_every_vertex_gets_a_rank(self, grid):
        ch = ContractionHierarchy(grid)
        assert sorted(ch.rank) == list(range(grid.num_vertices))

    def test_shortcut_count_nonnegative(self, grid):
        ch = ContractionHierarchy(grid)
        assert ch.num_shortcuts >= 0

    def test_disconnected_pair_is_infinite(self):
        g = RoadNetwork(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        ch = ContractionHierarchy(g)
        assert ch.distance(0, 3) == float("inf")


class TestHubLabeling:
    def test_rejects_bad_order(self, grid):
        with pytest.raises(ValueError):
            HubLabeling(grid, order=[0, 0, 1])

    def test_ch_rank_order_shrinks_labels(self, grid):
        degree_order = HubLabeling(grid, order="degree")
        ch_order = HubLabeling(grid, order="ch")
        # CH importance order should not be dramatically worse; usually better.
        assert ch_order.average_label_size() <= degree_order.average_label_size() * 1.5

    def test_named_orders_agree_on_distances(self, grid):
        degree_order = HubLabeling(grid, order="degree")
        ch_order = HubLabeling(grid, order="ch")
        for s, t in [(0, 1), (0, grid.num_vertices - 1), (3, 7)]:
            assert ch_order.distance(s, t) == pytest.approx(degree_order.distance(s, t))

    def test_rejects_unknown_named_order(self, grid):
        with pytest.raises(ValueError):
            HubLabeling(grid, order="alphabetical")

    def test_disconnected_pair_is_infinite(self):
        g = RoadNetwork(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        hub = HubLabeling(g)
        assert hub.distance(1, 2) == float("inf")

    def test_label_size_accessors(self, grid):
        hub = HubLabeling(grid)
        assert hub.label_size(0) >= 1
        assert hub.average_label_size() >= 1.0


class TestGTree:
    def test_rejects_bad_parameters(self, grid):
        with pytest.raises(ValueError):
            GTree(grid, fanout=1)
        with pytest.raises(ValueError):
            GTree(grid, leaf_size=1)

    def test_leaf_assignment_covers_all_vertices(self, grid):
        gtree = GTree(grid, leaf_size=8)
        assert all(leaf >= 0 for leaf in gtree.leaf_of)
        for v in grid.vertices():
            assert v in gtree.nodes[gtree.leaf_of[v]].vertices

    def test_leaves_respect_size_limit(self, grid):
        gtree = GTree(grid, leaf_size=8)
        for leaf_index in gtree.leaves():
            assert len(gtree.nodes[leaf_index].vertices) <= 8

    def test_same_leaf_distance_exact(self, grid):
        gtree = GTree(grid, leaf_size=12)
        leaf = gtree.nodes[gtree.leaves()[0]]
        pairs = [(leaf.vertices[0], v) for v in leaf.vertices[1:4]]
        verify_oracle(gtree, grid, pairs)

    def test_matrix_operations_counter(self, grid):
        gtree = GTree(grid, leaf_size=8)
        gtree.reset_counters()
        gtree.distance(0, grid.num_vertices - 1)
        assert gtree.matrix_operations > 0
        gtree.reset_counters()
        assert gtree.matrix_operations == 0

    def test_materialisation_cache_reuse(self, grid):
        gtree = GTree(grid, leaf_size=8)
        gtree.clear_cache()
        gtree.distance(0, grid.num_vertices - 1)
        after_first = gtree.matrix_operations
        gtree.distance(0, grid.num_vertices - 2)
        second_cost = gtree.matrix_operations - after_first
        gtree.clear_cache()
        gtree.reset_counters()
        gtree.distance(0, grid.num_vertices - 2)
        cold_cost = gtree.matrix_operations
        assert second_cost <= cold_cost

    def test_min_distance_to_node_is_lower_bound(self, grid):
        gtree = GTree(grid, leaf_size=8)
        source = 0
        for leaf_index in gtree.leaves():
            node = gtree.nodes[leaf_index]
            bound = gtree.min_distance_to_node(source, leaf_index)
            for v in node.vertices:
                assert bound <= dijkstra_distance(grid, source, v) + 1e-9

    def test_min_distance_to_own_leaf_is_zero(self, grid):
        gtree = GTree(grid, leaf_size=8)
        assert gtree.min_distance_to_node(0, gtree.leaf_of[0]) == 0.0
