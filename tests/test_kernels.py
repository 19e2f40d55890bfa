"""Tests for the CSR graph kernels (repro.kernels).

The list-based implementations in ``repro.graph.dijkstra`` define the
semantics; the CSR backend must be observationally identical through
the public dispatch layer.  Property tests drive both backends over
random graphs (including unreachable vertices, collapsed parallel
edges, and one-way arcs), and the workspace tests pin down the
reuse and thread-isolation contracts the serving stack relies on.
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
from repro.graph import (
    RoadNetwork,
    bidirectional_dijkstra,
    dijkstra_all,
    dijkstra_distance,
    multi_source_dijkstra,
    network_expansion_knn,
    perturbed_grid_network,
)

needs_scipy = pytest.mark.skipif(
    not kernels.scipy_available(), reason="scipy not installed"
)


@st.composite
def sparse_graph(draw):
    """A small random graph: connected core + possibly isolated tail.

    The tail vertices (if any) are unreachable, exercising the infinity
    and owner ``-1`` conventions.  Duplicate ``add_edge`` calls exercise
    parallel-edge collapse (the smaller weight must win in both
    backends because CSR is built from the already-collapsed adjacency).
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


def _both_backends(fn):
    """Run ``fn`` under each backend and return (python, csr) results."""
    with kernels.use_backend("python"):
        reference = fn()
    with kernels.use_backend("csr"):
        fast = fn()
    return reference, fast


@needs_scipy
class TestUndirectedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(sparse_graph(), st.integers(min_value=0, max_value=9))
    def test_dijkstra_all_matches_reference(self, g, seed):
        source = seed % g.num_vertices
        reference, fast = _both_backends(lambda: dijkstra_all(g, source))
        assert fast == pytest.approx(reference)

    @settings(max_examples=40, deadline=None)
    @given(
        sparse_graph(),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    )
    def test_p2p_matches_reference(self, g, a, b):
        source, target = a % g.num_vertices, b % g.num_vertices
        reference, fast = _both_backends(
            lambda: dijkstra_distance(g, source, target)
        )
        assert fast == pytest.approx(reference)

    @settings(max_examples=40, deadline=None)
    @given(sparse_graph(), st.sets(st.integers(min_value=0, max_value=9),
                                   min_size=1, max_size=4))
    def test_multi_source_matches_reference(self, g, raw_sources):
        sources = sorted({s % g.num_vertices for s in raw_sources})
        (ref_dist, ref_owner), (fast_dist, fast_owner) = _both_backends(
            lambda: multi_source_dijkstra(g, sources)
        )
        assert fast_dist == pytest.approx(ref_dist)
        # Owners may legitimately differ on exact ties; both must name
        # *a* nearest source (or -1 exactly when unreachable).
        per_source = {s: dijkstra_all(g, s) for s in sources}
        for v in g.vertices():
            if ref_dist[v] == math.inf:
                assert fast_owner[v] == -1 and ref_owner[v] == -1
            else:
                assert per_source[fast_owner[v]][v] == pytest.approx(ref_dist[v])

    @settings(max_examples=25, deadline=None)
    @given(sparse_graph(), st.integers(min_value=1, max_value=5))
    def test_network_expansion_knn_matches_reference(self, g, k):
        is_match = lambda v: v % 2 == 0  # noqa: E731 - tiny predicate
        reference, fast = _both_backends(
            lambda: network_expansion_knn(g, 0, k, is_match)
        )
        assert [v for v, _ in fast] == [v for v, _ in reference]
        assert [d for _, d in fast] == pytest.approx([d for _, d in reference])

    def test_parallel_edges_collapse_to_minimum(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, 5.0)
        g.add_edge(0, 1, 2.0)  # collapses: min weight wins
        g.add_edge(0, 1, 9.0)  # ignored: larger than existing
        g.add_edge(1, 2, 1.0)
        reference, fast = _both_backends(lambda: dijkstra_all(g, 0))
        assert reference == pytest.approx([0.0, 2.0, 3.0])
        assert fast == pytest.approx(reference)
        assert g.csr().num_arcs == 4  # two undirected edges, both arcs

    def test_mutation_invalidates_cached_csr(self):
        g = perturbed_grid_network(4, 4, seed=3)
        before = g.csr()
        with kernels.use_backend("python"):
            expected_before = dijkstra_all(g, 0)
        g.add_edge(0, g.num_vertices - 1, 0.01)
        with kernels.use_backend("python"):
            expected_after = dijkstra_all(g, 0)
        with kernels.use_backend("csr"):
            assert dijkstra_all(g, 0) == pytest.approx(expected_after)
        assert g.csr() is not before
        assert expected_after != pytest.approx(expected_before)


@needs_scipy
class TestDirectedEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(directed_graph(), st.integers(min_value=0, max_value=9))
    def test_forward_and_reverse_sssp(self, g, seed):
        source = seed % g.num_vertices
        fwd_ref, fwd_fast = _both_backends(lambda: dijkstra_all(g, source))
        rev_ref, rev_fast = _both_backends(
            lambda: dijkstra_all(g, source, reverse=True)
        )
        assert fwd_fast == pytest.approx(fwd_ref)
        assert rev_fast == pytest.approx(rev_ref)
        # The reverse search is the forward search of the flipped graph.
        assert [rev_ref[v] for v in g.vertices()] == pytest.approx(
            [dijkstra_distance(g, v, source) for v in g.vertices()]
        )

    @settings(max_examples=30, deadline=None)
    @given(
        directed_graph(),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    )
    def test_directed_distance(self, g, a, b):
        source, target = a % g.num_vertices, b % g.num_vertices
        reference, fast = _both_backends(
            lambda: dijkstra_distance(g, source, target)
        )
        assert fast == pytest.approx(reference)
        # The python meet-in-the-middle walks entering arcs backward.
        meet_ref, meet_fast = _both_backends(
            lambda: bidirectional_dijkstra(g, source, target)
        )
        assert meet_ref == pytest.approx(reference)
        assert meet_fast == pytest.approx(reference)

    @settings(max_examples=20, deadline=None)
    @given(directed_graph(), st.sets(st.integers(min_value=0, max_value=9),
                                     min_size=1, max_size=3))
    def test_reverse_multi_source(self, g, raw_objects):
        objects = sorted({o % g.num_vertices for o in raw_objects})
        (ref_dist, ref_owner), (fast_dist, fast_owner) = _both_backends(
            lambda: multi_source_dijkstra(g, objects, reverse=True)
        )
        assert fast_dist == pytest.approx(ref_dist)
        per_object = {o: dijkstra_all(g, o, reverse=True) for o in objects}
        for v in range(g.num_vertices):
            if ref_dist[v] == math.inf:
                assert fast_owner[v] == -1 and ref_owner[v] == -1
            else:
                assert per_object[fast_owner[v]][v] == pytest.approx(ref_dist[v])


@needs_scipy
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
        with kernels.use_backend("python"):
            expected = {s: dijkstra_all(g, s) for s in range(8)}
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


@needs_scipy
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


class TestBackendSwitch:
    def test_python_backend_disables_kernels(self):
        with kernels.use_backend("python"):
            assert kernels.active_backend() == "python"
            assert not kernels.enabled()
            assert not kernels.flat_buffers_enabled()

    @needs_scipy
    def test_csr_backend_enables_kernels(self):
        with kernels.use_backend("csr"):
            assert kernels.active_backend() == "csr"
            assert kernels.enabled()
            assert kernels.flat_buffers_enabled()

    def test_environment_variable_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert kernels.active_backend() == "python"
        monkeypatch.setenv("REPRO_KERNELS", "nonsense")
        assert kernels.active_backend() in ("csr", "python")  # falls to auto

    def test_override_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "auto")
        with kernels.use_backend("python"):
            assert kernels.active_backend() == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            with kernels.use_backend("fortran"):
                pass  # pragma: no cover

    def test_warm_is_noop_without_kernels(self):
        g = perturbed_grid_network(3, 3, seed=1)
        with kernels.use_backend("python"):
            kernels.warm(g)
            assert g._csr is None

    @needs_scipy
    def test_warm_builds_csr_caches(self):
        g = perturbed_grid_network(3, 3, seed=1)
        g.add_arc(0, 8, 1.0)
        with kernels.use_backend("csr"):
            kernels.warm(g)
            assert g._csr is not None and g._csr_in is not None


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
