"""Tests for the CSR graph kernels (repro.kernels).

Every search entry point is compared, on random undirected and one-way
graphs (including unreachable vertices and collapsed parallel edges),
against one textbook binary-heap Dijkstra that shares no code with the
kernels (``tests/reference_dijkstra.py``).  The workspace tests pin down
the reuse and thread-isolation contracts the serving stack relies on.
"""

from __future__ import annotations

import math
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.analysis.linter import lint_source
from repro.analysis.rules import REPRODUCIBLE_PREFIXES
from repro.distance import DijkstraOracle
from repro.graph import (
    RoadNetwork,
    dijkstra_all,
    dijkstra_distance,
    dijkstra_to_targets,
    multi_source_dijkstra,
    network_expansion_knn,
    perturbed_grid_network,
)
from repro.nvd.voronoi import NetworkVoronoiDiagram
from tests.reference_dijkstra import textbook_sssp


@st.composite
def sparse_graph(draw):
    """A small random graph: connected core + possibly isolated tail.

    The tail vertices (if any) are unreachable, exercising the infinity
    and owner ``-1`` conventions.  Duplicate ``add_edge`` calls exercise
    parallel-edge collapse (the smaller weight must win in the CSR view
    too, because it is built from the already-collapsed adjacency).
    """
    core = draw(st.integers(min_value=2, max_value=10))
    tail = draw(st.integers(min_value=0, max_value=3))
    g = RoadNetwork(core + tail)
    for i in range(core - 1):
        w = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        g.add_edge(i, i + 1, w)
    extra = draw(st.integers(min_value=0, max_value=2 * core))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=core - 1))
        v = draw(st.integers(min_value=0, max_value=core - 1))
        if u != v:
            w = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
            g.add_edge(u, v, w)  # may collapse onto an existing edge
    return g


@st.composite
def directed_graph(draw):
    """A small random one-way graph with a guaranteed forward chain."""
    n = draw(st.integers(min_value=2, max_value=10))
    g = RoadNetwork(n)
    for i in range(n - 1):
        w = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        g.add_arc(i, i + 1, w)
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            w = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
            g.add_arc(u, v, w)
    return g


@st.composite
def integer_weight_graph(draw):
    """A small random one-way graph whose integer weights make exact
    distance ties common, so settle order is tested, not just distances."""
    n = draw(st.integers(min_value=2, max_value=10))
    g = RoadNetwork(n)
    for i in range(n - 1):
        g.add_arc(i, i + 1, float(draw(st.integers(min_value=1, max_value=3))))
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            g.add_arc(u, v, float(draw(st.integers(min_value=1, max_value=3))))
    return g


def _check_multi_source(g, sources, reverse):
    """Distances are the per-source minimum; every owner is *a* nearest
    source (owners may differ from any fixed rule on exact ties), and
    ``-1`` exactly where no source is reachable."""
    distances, owners = multi_source_dijkstra(g, sources, reverse=reverse)
    per_source = {s: textbook_sssp(g, s, reverse=reverse) for s in sources}
    for v in g.vertices():
        best = min(per_source[s][v] for s in sources)
        if best == math.inf:
            assert distances[v] == math.inf and owners[v] == -1
        else:
            assert distances[v] == pytest.approx(best)
            assert per_source[owners[v]][v] == pytest.approx(best)


def _check_expansion(g, source, k):
    """The first ``k`` matches in ``(distance, vertex)`` settle order."""
    is_match = lambda v: v % 2 == 0  # noqa: E731 - tiny predicate
    reference = textbook_sssp(g, source)
    expected = sorted(
        (d, v) for v, d in enumerate(reference) if d < math.inf and is_match(v)
    )[:k]
    got = network_expansion_knn(g, source, k, is_match)
    assert [v for v, _ in got] == [v for _, v in expected]
    assert [d for _, d in got] == pytest.approx([d for d, _ in expected])


def _check_nvd_artefacts(g, objects):
    """Adjacency and MaxRadius recomputed by walking ``graph.edges()``
    with the diagram's own owners."""
    nvd = NetworkVoronoiDiagram(g, objects)
    adjacency = {o: set() for o in nvd.objects}
    for u, v, _ in g.edges():
        owner_u, owner_v = nvd.owner(u), nvd.owner(v)
        if owner_u != owner_v and owner_u >= 0 and owner_v >= 0:
            adjacency[owner_u].add(owner_v)
            adjacency[owner_v].add(owner_u)
    max_radius = {o: 0.0 for o in nvd.objects}
    for v in g.vertices():
        owner = nvd.owner(v)
        if owner >= 0:
            max_radius[owner] = max(max_radius[owner], nvd.distance_to_owner(v))
    assert nvd.adjacency == adjacency
    assert nvd.max_radius == max_radius


class TestUndirectedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(sparse_graph(), st.integers(min_value=0, max_value=9))
    def test_dijkstra_all_matches_reference(self, g, seed):
        source = seed % g.num_vertices
        assert dijkstra_all(g, source) == pytest.approx(textbook_sssp(g, source))

    @settings(max_examples=40, deadline=None)
    @given(
        sparse_graph(),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    )
    def test_p2p_matches_reference(self, g, a, b):
        source, target = a % g.num_vertices, b % g.num_vertices
        assert dijkstra_distance(g, source, target) == pytest.approx(
            textbook_sssp(g, source)[target]
        )

    @settings(max_examples=40, deadline=None)
    @given(sparse_graph(), st.integers(min_value=0, max_value=9),
           st.sets(st.integers(min_value=0, max_value=12), max_size=5))
    def test_to_targets_matches_reference(self, g, seed, raw_targets):
        source = seed % g.num_vertices
        targets = {t % g.num_vertices for t in raw_targets}
        reference = textbook_sssp(g, source)
        assert dijkstra_to_targets(g, source, targets) == pytest.approx(
            {t: reference[t] for t in targets}
        )

    @settings(max_examples=40, deadline=None)
    @given(sparse_graph(), st.sets(st.integers(min_value=0, max_value=9),
                                   min_size=1, max_size=4))
    def test_multi_source_matches_reference(self, g, raw_sources):
        _check_multi_source(g, sorted({s % g.num_vertices for s in raw_sources}), False)

    @settings(max_examples=25, deadline=None)
    @given(sparse_graph(), st.integers(min_value=1, max_value=5))
    def test_network_expansion_knn_matches_reference(self, g, k):
        _check_expansion(g, 0, k)

    @settings(max_examples=30, deadline=None)
    @given(sparse_graph(), st.lists(st.integers(min_value=0, max_value=12),
                                    min_size=1, max_size=6))
    def test_distances_many_matches_reference(self, g, raw):
        sources = [r % g.num_vertices for r in raw]
        targets = [(r * 7 + 3) % g.num_vertices for r in raw]
        expected = [textbook_sssp(g, s)[t] for s, t in zip(sources, targets)]
        assert DijkstraOracle(g).distances_many(sources, targets) == pytest.approx(
            expected
        )

    @settings(max_examples=30, deadline=None)
    @given(sparse_graph(), st.sets(st.integers(min_value=0, max_value=9),
                                   min_size=1, max_size=4))
    def test_nvd_artefacts_match_edge_walk(self, g, raw_objects):
        _check_nvd_artefacts(g, sorted({o % g.num_vertices for o in raw_objects}))

    def test_parallel_edges_collapse_to_minimum(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 5.0)
        g.add_edge(0, 1, 2.0)  # collapses: min weight wins
        g.add_edge(0, 1, 9.0)  # ignored: larger than existing
        g.add_edge(1, 2, 1.0)
        assert textbook_sssp(g, 0) == pytest.approx([0.0, 2.0, 3.0])
        assert dijkstra_all(g, 0) == pytest.approx([0.0, 2.0, 3.0])
        assert g.csr().num_arcs == 4  # two undirected edges, both arcs

    def test_mutation_invalidates_cached_csr(self):
        g = perturbed_grid_network(4, 4, seed=3)
        before = g.csr()
        expected_before = textbook_sssp(g, 0)
        assert dijkstra_all(g, 0) == pytest.approx(expected_before)
        g.add_edge(0, g.num_vertices - 1, 0.01)
        expected_after = textbook_sssp(g, 0)
        assert dijkstra_all(g, 0) == pytest.approx(expected_after)
        assert g.csr() is not before
        assert expected_after != pytest.approx(expected_before)


class TestDirectedEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(directed_graph(), st.integers(min_value=0, max_value=9))
    def test_forward_and_reverse_sssp(self, g, seed):
        source = seed % g.num_vertices
        assert dijkstra_all(g, source) == pytest.approx(textbook_sssp(g, source))
        reverse = textbook_sssp(g, source, reverse=True)
        assert dijkstra_all(g, source, reverse=True) == pytest.approx(reverse)
        # The reverse search is the forward search of the flipped graph.
        assert reverse == pytest.approx(
            [textbook_sssp(g, v)[source] for v in g.vertices()]
        )

    @settings(max_examples=30, deadline=None)
    @given(
        directed_graph(),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    )
    def test_directed_distance(self, g, a, b):
        source, target = a % g.num_vertices, b % g.num_vertices
        reference = textbook_sssp(g, source)
        assert dijkstra_distance(g, source, target) == pytest.approx(reference[target])
        assert dijkstra_to_targets(g, source, [target, source]) == pytest.approx(
            {target: reference[target], source: 0.0}
        )

    @settings(max_examples=20, deadline=None)
    @given(directed_graph(), st.sets(st.integers(min_value=0, max_value=9),
                                     min_size=1, max_size=3))
    def test_reverse_multi_source(self, g, raw_objects):
        objects = sorted({o % g.num_vertices for o in raw_objects})
        _check_multi_source(g, objects, True)
        _check_multi_source(g, objects, False)

    @settings(max_examples=25, deadline=None)
    @given(directed_graph(), st.integers(min_value=0, max_value=9),
           st.integers(min_value=1, max_value=5))
    def test_network_expansion_knn(self, g, seed, k):
        _check_expansion(g, seed % g.num_vertices, k)

    @settings(max_examples=40, deadline=None)
    @given(integer_weight_graph(), st.integers(min_value=0, max_value=9),
           st.integers(min_value=1, max_value=6))
    def test_expansion_tie_order(self, g, seed, k):
        _check_expansion(g, seed % g.num_vertices, k)

    @settings(max_examples=30, deadline=None)
    @given(directed_graph(), st.sets(st.integers(min_value=0, max_value=9),
                                     min_size=1, max_size=4))
    def test_nvd_artefacts_match_edge_walk(self, g, raw_objects):
        _check_nvd_artefacts(g, sorted({o % g.num_vertices for o in raw_objects}))


class TestWorkspace:
    def test_repeated_queries_reuse_workspace(self):
        g = perturbed_grid_network(6, 6, seed=7)
        first = dijkstra_all(g, 0)
        workspace = kernels.get_workspace(g.num_vertices)
        runs_before = workspace.sssp_runs
        # Same source again: the one-slot memo answers without a search.
        again = dijkstra_all(g, 0)
        assert again == pytest.approx(first)
        assert workspace.sssp_runs == runs_before
        assert workspace.sssp_hits > 0
        # A fresh workspace (cold memo) still agrees.
        workspace.invalidate()
        assert dijkstra_all(g, 0) == pytest.approx(first)

    def test_memo_does_not_leak_across_mutation(self):
        g = perturbed_grid_network(5, 5, seed=9)
        before = dijkstra_distance(g, 0, g.num_vertices - 1)
        g.add_edge(0, g.num_vertices - 1, 0.01)
        after = dijkstra_distance(g, 0, g.num_vertices - 1)
        assert after == pytest.approx(0.01)
        assert after < before

    def test_threads_get_distinct_workspaces(self):
        n = 64
        seen: dict[str, kernels.SearchWorkspace] = {}

        def grab(name: str) -> None:
            seen[name] = kernels.get_workspace(n)

        threads = [
            threading.Thread(target=grab, args=(f"t{i}",)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        grab("main")
        instances = list(seen.values())
        assert len({id(w) for w in instances}) == len(instances)
        # ... while repeated calls on one thread return the same object.
        assert kernels.get_workspace(n) is seen["main"]

    def test_concurrent_queries_are_isolated(self):
        g = perturbed_grid_network(6, 6, seed=11)
        expected = {s: textbook_sssp(g, s) for s in range(8)}
        failures: list[str] = []

        def worker(source: int) -> None:
            for _ in range(20):
                got = dijkstra_all(g, source)
                if got != pytest.approx(expected[source]):
                    failures.append(f"source {source} diverged")
                    return

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []

    def test_warm_builds_csr_caches(self):
        g = perturbed_grid_network(3, 3, seed=1)
        g.add_arc(0, 8, 1.0)
        kernels.warm(g)
        assert g._csr is not None and g._csr_in is not None


class TestFingerprintAndPickle:
    def test_fingerprint_stable_across_rebuilds(self):
        a = perturbed_grid_network(5, 5, seed=4)
        b = perturbed_grid_network(5, 5, seed=4)
        assert a.csr().structural_fingerprint() == b.csr().structural_fingerprint()

    def test_fingerprint_changes_on_mutation(self):
        g = perturbed_grid_network(5, 5, seed=4)
        before = g.csr().structural_fingerprint()
        g.add_edge(0, g.num_vertices - 1, 0.5)
        assert g.csr().structural_fingerprint() != before

    def test_pickle_round_trip_drops_and_rebuilds_csr(self):
        g = perturbed_grid_network(5, 5, seed=5)
        fingerprint = g.csr().structural_fingerprint()
        clone = pickle.loads(pickle.dumps(g))
        assert clone._csr is None  # caches never travel in pickles
        assert clone.csr().structural_fingerprint() == fingerprint
        assert dijkstra_all(clone, 0) == pytest.approx(dijkstra_all(g, 0))

    def test_directed_pickle_round_trip(self):
        g = RoadNetwork(4)
        g.add_arc(0, 1, 1.0)
        g.add_arc(1, 2, 2.0)
        g.add_edge(2, 3, 0.5)
        clone = pickle.loads(pickle.dumps(g))
        assert clone._csr is None and clone._csr_in is None
        assert clone.csr().structural_fingerprint() == (
            g.csr().structural_fingerprint()
        )
        assert clone.csr_in().structural_fingerprint() == (
            g.csr_in().structural_fingerprint()
        )
        assert g.csr_in().structural_fingerprint() != (
            g.csr().structural_fingerprint()
        )


class TestLintCoverage:
    def test_kernels_is_a_reproducible_path(self):
        assert "kernels/" in REPRODUCIBLE_PREFIXES

    def test_ksp004_fires_in_kernels_scope(self):
        source = (
            "# ksp: scope=kernels/search.py\n"
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        )
        assert [f.code for f in lint_source(source)] == ["KSP004"]
