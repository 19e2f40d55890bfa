"""Failure injection: degenerate worlds every layer must survive.

Disconnected road networks, unreachable objects, single-object corpora,
single-vertex leaves, empty result sets — the situations a production
deployment hits when data is dirty.
"""

import math

import pytest

from repro.api import Query
from repro.core import KSpin, brute_force_bknn, results_equivalent
from repro.distance import (
    ContractionHierarchy,
    DijkstraOracle,
    GTree,
    HubLabeling,
)
from repro.graph import RoadNetwork
from repro.lowerbound import AltLowerBounder
from repro.nvd import ApproximateNVD, NetworkVoronoiDiagram
from repro.text import KeywordDataset


def two_island_world():
    """Two disconnected 3-vertex chains with objects on both islands."""
    g = RoadNetwork(6)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(3, 4, 1.0)
    g.add_edge(4, 5, 1.0)
    for v in g.vertices():
        g.set_coordinates(v, float(v), float(v % 2))
    dataset = KeywordDataset(
        {2: ["cafe"], 5: ["cafe", "bar"], 0: ["bar"]}
    )
    return g, dataset


class TestDisconnectedGraphs:
    def test_nvd_marks_unreachable(self):
        g, _ = two_island_world()
        nvd = NetworkVoronoiDiagram(g, [2])
        assert nvd.owner(0) == 2
        assert nvd.owner(5) == -1  # other island unreachable
        assert nvd.distance_to_owner(5) == math.inf

    def test_apx_nvd_builds_on_disconnected(self):
        g, _ = two_island_world()
        nvd = ApproximateNVD.build(g, [0, 2, 5], rho=2)
        for v in g.vertices():
            assert nvd.seed_objects(g.coordinates(v))

    def test_kspin_queries_only_reachable_objects(self):
        g, dataset = two_island_world()
        kspin = KSpin(
            g,
            dataset,
            oracle=DijkstraOracle(g),
            lower_bounder=AltLowerBounder(g, num_landmarks=2),
            rho=2,
        )
        # From island A, only the island-A cafe is a result.
        result = kspin.execute(Query(0, ["cafe"], k=5)).pairs()
        assert [o for o, _ in result] == [2]
        # From island B, only the island-B cafe.
        result = kspin.execute(Query(3, ["cafe"], k=5)).pairs()
        assert [o for o, _ in result] == [5]

    def test_kspin_topk_skips_unreachable(self):
        g, dataset = two_island_world()
        kspin = KSpin(
            g,
            dataset,
            oracle=DijkstraOracle(g),
            lower_bounder=AltLowerBounder(g, num_landmarks=2),
            rho=2,
        )
        result = kspin.execute(Query(0, ["cafe", "bar"], k=5, kind="topk")).pairs()
        objects = {o for o, _ in result}
        assert objects <= {0, 2}
        assert all(math.isfinite(score) for _, score in result)

    @pytest.mark.parametrize(
        "factory",
        [ContractionHierarchy, HubLabeling, lambda g: GTree(g, leaf_size=3)],
    )
    def test_indexed_oracles_handle_disconnection(self, factory):
        g, _ = two_island_world()
        oracle = factory(g)
        assert oracle.distance(0, 2) == pytest.approx(2.0)
        assert oracle.distance(0, 5) == math.inf

class TestDegenerateCorpora:
    def test_single_object_world(self):
        g = RoadNetwork(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 3, 1.0)
        dataset = KeywordDataset({3: ["only"]})
        kspin = KSpin(
            g,
            dataset,
            oracle=DijkstraOracle(g),
            lower_bounder=AltLowerBounder(g, num_landmarks=1),
        )
        assert kspin.execute(Query(0, ["only"], k=3)).pairs() == [(3, 3.0)]
        top = kspin.execute(Query(0, ["only"], k=1, kind="topk")).pairs()
        assert top[0][0] == 3

    def test_every_vertex_is_an_object(self):
        g = RoadNetwork(5)
        for i in range(4):
            g.add_edge(i, i + 1, 1.0)
            g.set_coordinates(i, float(i), 0.0)
        g.set_coordinates(4, 4.0, 0.0)
        dataset = KeywordDataset({v: ["dense"] for v in g.vertices()})
        kspin = KSpin(
            g,
            dataset,
            oracle=DijkstraOracle(g),
            lower_bounder=AltLowerBounder(g, num_landmarks=2),
            rho=2,
        )
        expected = brute_force_bknn(g, dataset, 2, 3, ["dense"])
        assert results_equivalent(kspin.execute(Query(2, ["dense"], k=3)).pairs(), expected)

    def test_query_vertex_is_an_object(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        dataset = KeywordDataset({1: ["self"]})
        kspin = KSpin(
            g,
            dataset,
            oracle=DijkstraOracle(g),
            lower_bounder=AltLowerBounder(g, num_landmarks=1),
        )
        assert kspin.execute(Query(1, ["self"], k=1)).pairs() == [(1, 0.0)]

    def test_all_objects_share_one_vertexless_keyword_heap(self):
        """Keyword whose objects coincide spatially (same coordinates)."""
        g = RoadNetwork(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 3, 1.0)
        for v in g.vertices():
            g.set_coordinates(v, 1.0, 1.0)  # degenerate geometry
        dataset = KeywordDataset({1: ["x"], 2: ["x"], 3: ["x"]})
        kspin = KSpin(
            g,
            dataset,
            oracle=DijkstraOracle(g),
            lower_bounder=AltLowerBounder(g, num_landmarks=1),
            rho=1,
        )
        expected = brute_force_bknn(g, dataset, 0, 3, ["x"])
        assert results_equivalent(kspin.execute(Query(0, ["x"], k=3)).pairs(), expected)


class TestTinyGraphs:
    def test_two_vertex_world(self):
        g = RoadNetwork(2)
        g.add_edge(0, 1, 5.0)
        dataset = KeywordDataset({1: ["tiny"]})
        for factory in (
            DijkstraOracle,
            ContractionHierarchy,
            HubLabeling,
            lambda gg: GTree(gg, leaf_size=2),
        ):
            kspin = KSpin(
                g,
                dataset,
                oracle=factory(g),
                lower_bounder=AltLowerBounder(g, num_landmarks=1),
            )
            assert kspin.execute(Query(0, ["tiny"], k=1)).pairs() == [(0 + 1, 5.0)]

    def test_graph_smaller_than_gtree_leaf(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        gtree = GTree(g, leaf_size=64)  # whole graph fits in the root leaf
        assert gtree.distance(0, 2) == pytest.approx(3.0)
        assert gtree.min_distance_to_node(0, gtree.leaf_of[2]) == 0.0
