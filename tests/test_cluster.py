"""The process serving cluster: equality, failover, rehydration.

The load-bearing properties:

* **Equality** — for any query, at 2 or 3 workers, the cluster answers
  exactly what a single-process KSpin answers (up to ties at equal
  scores).
* **Updates** — fan-out keeps every worker in sync with the
  authoritative parent, including across worker restarts.
* **Fault tolerance** — SIGKILL-ing a worker mid-stream loses no
  request and corrupts no answer; the supervisor restarts the
  casualty and the replacement serves post-update state.
"""

import json
import os
import pickle
import signal
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    Query,
    QueryBatch,
    UnsupportedQueryError,
    UpdateOp,
    execute_batch,
)
from repro.core import KSpin, results_equivalent
from repro.datasets import load_dataset
from repro.datasets.workloads import WorkloadGenerator
from repro.distance import DijkstraOracle
from repro.lowerbound import AltLowerBounder
from repro.serve import ClusterCoordinator, Engine, QueryServer, ServeClient
from repro.serve.placement import ReplicateRouter


@pytest.fixture(scope="module")
def world():
    return load_dataset("DE-S")


@pytest.fixture(scope="module")
def kspin(world):
    return KSpin(
        world.graph,
        world.keywords,
        oracle=DijkstraOracle(world.graph),
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
    )


@pytest.fixture(scope="module")
def keywords(world):
    return sorted(world.keywords.keywords())


@pytest.fixture(scope="module", params=[2, 3], ids=lambda n: f"{n}-workers")
def cluster(request, kspin):
    coordinator = ClusterCoordinator(
        kspin,
        num_workers=request.param,
        cache_size=0,
        health_interval=0.2,
        ping_timeout=2.0,
    ).start()
    yield coordinator
    coordinator.close()


def _direct(kspin, query):
    """The single-process reference answer, bypassing shims and caches."""
    if query.kind == "topk":
        return kspin.processor.top_k(query.vertex, query.k, list(query.keywords))
    return kspin.processor.bknn(
        query.vertex, query.k, list(query.keywords), conjunctive=query.conjunctive
    )


# ----------------------------------------------------------------------
# Equality with single-process execution
# ----------------------------------------------------------------------
class TestClusterEquality:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_query_matches_single_process(
        self, data, cluster, kspin, keywords
    ):
        vertex = data.draw(
            st.integers(min_value=0, max_value=kspin.graph.num_vertices - 1)
        )
        k = data.draw(st.integers(min_value=1, max_value=6))
        vector = tuple(
            data.draw(
                st.lists(
                    st.sampled_from(keywords[:12]),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        )
        kind, mode = data.draw(
            st.sampled_from([("bknn", "or"), ("bknn", "and"), ("topk", "or")])
        )
        query = Query(vertex=vertex, keywords=vector, k=k, kind=kind, mode=mode)
        answer = cluster.execute(query)
        assert results_equivalent(answer.pairs(), _direct(kspin, query))

    def test_zipf_workload_matches_single_process(self, cluster, kspin, world):
        generator = WorkloadGenerator(world.graph, world.keywords, seed=11)
        workload = generator.zipf_queries(
            num_terms=2, num_queries=40, num_distinct=12
        )
        for item in workload:
            query = Query(vertex=item.vertex, keywords=item.keywords, k=5)
            answer = cluster.execute(query)
            assert results_equivalent(answer.pairs(), _direct(kspin, query))


# ----------------------------------------------------------------------
# Updates through the cluster
# ----------------------------------------------------------------------
class TestClusterUpdates:
    def test_interleaved_updates_match_reference(self, world):
        """Insert/delete through the cluster == the same ops on a clone,
        at 2 and 3 workers."""
        base = KSpin(
            world.graph,
            world.keywords,
            oracle=DijkstraOracle(world.graph),
            lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
        )
        occupied = set(world.keywords.objects())
        free = [v for v in world.graph.vertices() if v not in occupied][:4]
        keywords = sorted(world.keywords.keywords())[:3]
        ops = [
            UpdateOp(op="insert", object=free[0], document=[keywords[0]]),
            UpdateOp(op="insert", object=free[1],
                     document=[keywords[0], keywords[1]]),
            UpdateOp(op="delete", object=free[0]),
            UpdateOp(op="insert", object=free[2], document=[keywords[2]]),
            UpdateOp(op="add_keyword", object=free[1], keyword=keywords[2]),
        ]
        probes = [
            Query(vertex=0, keywords=(keywords[0],), k=5),
            Query(vertex=7, keywords=(keywords[0], keywords[1]), k=5, mode="and"),
            Query(vertex=7, keywords=(keywords[2],), k=5, kind="topk"),
        ]
        for num_workers in (2, 3):
            kspin = pickle.loads(pickle.dumps(base))
            reference = pickle.loads(pickle.dumps(base))
            with ClusterCoordinator(
                kspin, num_workers=num_workers, cache_size=16, supervise=False,
            ) as cluster:
                for op in ops:
                    cluster.apply(op)
                    reference.apply(op)
                    for query in probes:
                        answer = cluster.execute(query)
                        assert results_equivalent(
                            answer.pairs(), _direct(reference, query)
                        ), (num_workers, op, query)

    def test_update_invalidates_worker_caches(self, world):
        kspin = KSpin(
            world.graph,
            world.keywords,
            oracle=DijkstraOracle(world.graph),
            lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
        )
        keyword = sorted(world.keywords.keywords())[0]
        occupied = set(world.keywords.objects())
        free = next(v for v in world.graph.vertices() if v not in occupied)
        query = Query(vertex=free, keywords=(keyword,), k=3)
        with ClusterCoordinator(
            kspin, num_workers=1, cache_size=64, supervise=False,
        ) as cluster:
            cluster.execute(query)
            assert cluster.execute(query).cached  # warm
            summary = cluster.apply(
                UpdateOp(op="insert", object=free, document=[keyword])
            )
            assert summary["cache_evicted"] >= 1
            fresh = cluster.execute(query)
            assert not fresh.cached
            assert fresh.pairs()[0] == (free, 0.0)


# ----------------------------------------------------------------------
# Fault tolerance
# ----------------------------------------------------------------------
class TestClusterFaultTolerance:
    def test_kill_dash_nine_loses_no_request(self, kspin, keywords):
        """SIGKILL a worker mid-stream: every request correct, none lost."""
        with ClusterCoordinator(
            kspin, num_workers=2, cache_size=0, health_interval=0.2,
        ) as cluster:
            queries = [
                Query(vertex=v, keywords=(keywords[v % 4],), k=3)
                for v in range(30)
            ]
            for i, query in enumerate(queries):
                if i == 10:  # mid-ladder murder
                    victim = cluster.workers[0]
                    os.kill(victim.process.pid, signal.SIGKILL)
                answer = cluster.execute(query)
                assert results_equivalent(
                    answer.pairs(), _direct(kspin, query)
                ), (i, query)
            deadline = time.time() + 10
            while time.time() < deadline:
                if cluster.health()["workers"]["alive"] == 2:
                    break
                time.sleep(0.1)
            health = cluster.health()
            assert health["workers"]["alive"] == 2
            assert health["workers"]["restarts"] >= 1

    def test_restarted_worker_carries_updates(self, world, keywords):
        """A worker re-forked after death serves post-update state."""
        kspin = KSpin(
            world.graph,
            world.keywords,
            oracle=DijkstraOracle(world.graph),
            lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
        )
        occupied = set(world.keywords.objects())
        free = next(v for v in world.graph.vertices() if v not in occupied)
        with ClusterCoordinator(
            kspin, num_workers=1, cache_size=0, supervise=False,
        ) as cluster:
            cluster.apply(
                UpdateOp(op="insert", object=free, document=[keywords[0]])
            )
            os.kill(cluster.workers[0].process.pid, signal.SIGKILL)
            time.sleep(0.1)
            cluster.restart_worker(0)
            answer = cluster.execute(
                Query(vertex=free, keywords=(keywords[0],), k=1)
            )
            assert answer.pairs() == [(free, 0.0)]
            assert answer.worker == "worker-0"  # served by the replacement

    def test_whole_fleet_down_falls_back_to_parent(self, kspin, keywords):
        with ClusterCoordinator(
            kspin, num_workers=1, cache_size=0, supervise=False,
        ) as cluster:
            os.kill(cluster.workers[0].process.pid, signal.SIGKILL)
            cluster.workers[0].process.join(timeout=5)
            query = Query(vertex=0, keywords=(keywords[0],), k=3)
            answer = cluster.execute(query)
            assert results_equivalent(answer.pairs(), _direct(kspin, query))
            assert cluster.fallback_queries >= 1


# ----------------------------------------------------------------------
# Spawn-mode rehydration
# ----------------------------------------------------------------------
class TestSpawnMode:
    def test_spawned_worker_rehydrates_and_replays_journal(
        self, kspin, keywords, tmp_path
    ):
        """No fork: load snapshot + replay journal, answers still exact."""
        occupied = {
            o for kw in kspin.index.keywords()
            for o in kspin.dataset.inverted_list(kw)
        }
        free = next(
            v for v in kspin.graph.vertices() if v not in occupied
        )
        with ClusterCoordinator(
            kspin, num_workers=1, cache_size=0,
            start_method="spawn",
            snapshot_path=str(tmp_path / "cluster.idx"),
            supervise=False,
        ) as cluster:
            query = Query(vertex=0, keywords=(keywords[0],), k=3)
            answer = cluster.execute(query)
            assert results_equivalent(answer.pairs(), _direct(kspin, query))
            assert answer.worker == "worker-0"
            # Journal replay: update, kill, restart from snapshot+journal.
            cluster.apply(
                UpdateOp(op="insert", object=free, document=[keywords[0]])
            )
            os.kill(cluster.workers[0].process.pid, signal.SIGKILL)
            cluster.workers[0].process.join(timeout=5)
            cluster.restart_worker(0)
            answer = cluster.execute(
                Query(vertex=free, keywords=(keywords[0],), k=1)
            )
            assert answer.pairs() == [(free, 0.0)]
            assert answer.worker == "worker-0"


# ----------------------------------------------------------------------
# HTTP front end over a cluster backend
# ----------------------------------------------------------------------
class TestClusterBehindHttp:
    def test_query_server_serves_cluster_backend(self, kspin, keywords):
        with ClusterCoordinator(
            kspin, num_workers=2, cache_size=0, health_interval=0.2,
        ) as cluster:
            with QueryServer(
                cluster, port=0, workers=4
            ).start_background() as server:
                client = ServeClient(server.url)
                body = client.query({"vertex": 0, "k": 3, "keywords": [keywords[0]]})
                query = Query(vertex=0, keywords=(keywords[0],), k=3)
                assert results_equivalent(
                    [(o, d) for o, d in body["results"]],
                    _direct(kspin, query),
                )
                assert body["worker"] in ("worker-0", "worker-1")
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["workers"]["alive"] == 2
                metrics = client.metrics()
                assert metrics["cluster"]["workers"] == 2
                assert metrics["queries_served"] >= 1

    def test_unsupported_query_is_bad_request_not_internal(
        self, kspin, keywords
    ):
        """Conjunctive top-k through the cluster must 400, not 500."""
        with ClusterCoordinator(
            kspin, num_workers=1, cache_size=0, supervise=False,
        ) as cluster:
            with pytest.raises(UnsupportedQueryError):
                cluster.execute(
                    Query(vertex=0, keywords=(keywords[0],), k=2,
                          kind="topk", mode="and")
                )
            with QueryServer(cluster, port=0, workers=2).start_background(
            ) as server:
                request = urllib.request.Request(
                    f"{server.url}/v1/query?kind=topk&vertex=0&k=2"
                    f"&keywords={keywords[0]}&mode=and"
                )
                with pytest.raises(urllib.error.HTTPError) as info:
                    urllib.request.urlopen(request, timeout=10)
                assert info.value.code == 400
                body = json.loads(info.value.read())
                assert body["ok"] is False
                assert body["error"]["code"] == "bad_request"

    def test_batch_item_error_code_matches_engine(self, kspin, keywords):
        """A bad batch item is ``bad_request`` on both backends.

        The worker's error reply carries its code; the batch envelope
        must keep it instead of reporting the ``WorkerError`` wrapper as
        ``internal``.
        """
        batch = QueryBatch((
            Query(vertex=0, keywords=(keywords[0],), k=2),
            Query(vertex=10**6, keywords=(keywords[0],), k=2),
        ))
        expected = execute_batch(Engine(kspin, cache_size=0), batch)
        with ClusterCoordinator(
            kspin, num_workers=1, cache_size=0, supervise=False,
        ) as cluster:
            answered = execute_batch(cluster, batch)
        assert expected.errors[1]["code"] == "bad_request"
        assert answered.errors == expected.errors
        assert answered.results[0].hits == expected.results[0].hits


# ----------------------------------------------------------------------
# Routers in isolation
# ----------------------------------------------------------------------
def _all_live(keyword):
    """An ``inverted_size`` under which no keyword is pruned."""
    return 1


class TestRouters:
    def test_replicate_prefers_least_loaded(self):
        router = ReplicateRouter(3, _all_live)
        query = Query(vertex=0, keywords=("a",))
        assert router.plan(query, [5, 0, 5]) == 1

    def test_replicate_round_robins_when_tied(self):
        router = ReplicateRouter(3, _all_live)
        query = Query(vertex=0, keywords=("a",))
        targets = [router.plan(query, [0, 0, 0]) for _ in range(6)]
        assert set(targets) == {0, 1, 2}


class TestClusterPruning:
    def test_empty_keyword_short_circuits_and_matches(self, kspin):
        live = Query(vertex=0, keywords=("kw0000", "kw0001"), k=3)
        salted = Query(
            vertex=0, keywords=("kw0000", "kw0001", "zz-missing"), k=3
        )
        dead = Query(
            vertex=0, keywords=("kw0000", "zz-missing"), k=3, mode="and"
        )
        expected = kspin.execute(live).pairs()
        for num_workers in (2, 3):
            with ClusterCoordinator(
                kspin, num_workers=num_workers, cache_size=0,
                health_interval=5.0,
            ) as cluster:
                assert cluster.execute(live).pairs() == expected
                # A missing disjunctive keyword changes nothing (dead
                # keywords contribute no heaps).
                assert cluster.execute(salted).pairs() == expected
                # Conjunctive on an absent keyword: answered empty with
                # zero dispatches.
                before = cluster.metrics_snapshot()["cluster"]
                assert cluster.execute(dead).pairs() == []
                after = cluster.metrics_snapshot()["cluster"]
                assert after["short_circuits"] == before["short_circuits"] + 1
                assert after["dispatches"] == before["dispatches"]


# ----------------------------------------------------------------------
# Observability across the cluster
# ----------------------------------------------------------------------
class TestClusterObservability:
    def test_merged_latency_is_pooled_worker_histograms(self, kspin, keywords):
        """Cluster /metrics percentiles == percentiles over pooled samples."""
        from repro.obs.histogram import LogHistogram

        with ClusterCoordinator(
            kspin, num_workers=2, cache_size=0, supervise=False
        ) as coordinator:
            for vertex in range(12):
                coordinator.execute(
                    Query(vertex=vertex, keywords=(keywords[0],), k=2)
                )
            snapshot = coordinator.metrics_snapshot()
            per_worker = snapshot["cluster"]["per_worker"]
            pooled = LogHistogram.merged(
                LogHistogram.from_dict(snap["query_latency"])
                for snap in per_worker.values()
            )
            merged = snapshot["query_latency"]
            assert merged["count"] == pooled.count > 0
            assert merged["p50_ms"] == pooled.percentile(50) * 1000.0
            assert merged["p95_ms"] == pooled.percentile(95) * 1000.0
            assert merged["p99_ms"] == pooled.percentile(99) * 1000.0
            # The paper-5.1 totals fold across workers through QueryStats.
            assert snapshot["query_stats"]["iterations"] > 0
            status = snapshot["cluster"]["worker_status"]
            assert set(status) == {"worker-0", "worker-1"}
            assert all(entry["alive"] for entry in status.values())

    def test_trace_spans_cross_the_ipc_boundary(self, kspin, keywords):
        """A traced query returns one tree: dispatch -> worker -> engine."""
        from repro.obs.trace import TRACER

        with ClusterCoordinator(
            kspin, num_workers=2, cache_size=0, supervise=False
        ) as coordinator:
            TRACER.configure(enabled=True)
            try:
                with TRACER.trace("http.query") as root:
                    coordinator.execute(
                        Query(vertex=3, keywords=(keywords[0],), k=2)
                    )
            finally:
                TRACER.configure(enabled=False)
            names = {node.name for node in root.walk()}
            assert "cluster.execute" in names
            assert "cluster.dispatch" in names
            assert "worker.query" in names  # grafted from the worker process
            assert "engine.execute" in names  # inside the worker's tree
            worker_root = next(
                node for node in root.walk() if node.name == "worker.query"
            )
            assert worker_root.worker in ("worker-0", "worker-1")
            assert worker_root.trace_id == root.trace_id


# ----------------------------------------------------------------------
# Batched execution: one pipe round trip per worker, identical results
# ----------------------------------------------------------------------
class TestClusterBatches:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_execute_many_matches_sequential(
        self, data, cluster, kspin, keywords
    ):
        """Property: batched == one-at-a-time, at 2 or 3 workers."""
        queries = data.draw(
            st.lists(
                st.builds(
                    Query,
                    vertex=st.integers(
                        min_value=0, max_value=kspin.graph.num_vertices - 1
                    ),
                    keywords=st.lists(
                        st.sampled_from(keywords[:12]),
                        min_size=1,
                        max_size=3,
                        unique=True,
                    ).map(tuple),
                    k=st.integers(min_value=1, max_value=6),
                    kind=st.sampled_from(["bknn", "topk"]),
                    mode=st.just("or"),
                ),
                min_size=1,
                max_size=8,
            )
        )
        batched = cluster.execute_many(queries)
        sequential = [cluster.execute(query) for query in queries]
        assert [r.hits for r in batched] == [r.hits for r in sequential]
        for result, query in zip(batched, queries):
            assert results_equivalent(result.pairs(), _direct(kspin, query))

    def test_mixed_batch_with_caches(self, kspin, keywords):
        """Hits, misses, duplicates, and empty answers in one batch.

        ``dead`` is conjunctive on an absent keyword (the router
        short-circuits it) — the batch must match sequential execution
        and the single-process reference.
        """
        dead = Query(
            vertex=0, keywords=(keywords[0], "zz-missing"), k=3, mode="and"
        )
        hot = Query(vertex=1, keywords=(keywords[0],), k=4)
        cold = Query(vertex=5, keywords=tuple(keywords[1:3]), k=3)
        top = Query(vertex=2, keywords=(keywords[3],), k=2, kind="topk")
        batch = [hot, dead, cold, hot, top]
        with ClusterCoordinator(
            kspin,
            num_workers=2,
            cache_size=64,
            supervise=False,
        ) as coordinator:
            coordinator.execute(hot)  # warm: the batch mixes hits and misses
            batched = coordinator.execute_many(batch)
            sequential = [coordinator.execute(query) for query in batch]
        assert [r.hits for r in batched] == [r.hits for r in sequential]
        assert batched[1].hits == ()
        assert batched[0].hits == batched[3].hits  # in-batch duplicate
        for result, query in zip(batched, batch):
            assert results_equivalent(result.pairs(), _direct(kspin, query))

    def test_batch_is_one_round_trip_per_worker(self, kspin, keywords):
        """A batch dispatches once per worker, not once per query."""
        with ClusterCoordinator(
            kspin, num_workers=2, cache_size=0, supervise=False
        ) as coordinator:
            before = coordinator.metrics_snapshot()["cluster"]
            batch = [
                Query(vertex=v, keywords=(keywords[v % 4],), k=2)
                for v in range(6)
            ]
            coordinator.execute_many(batch)
            after = coordinator.metrics_snapshot()["cluster"]
            # Each query goes to one worker, so six queries dispatch six
            # times but ride at most two pipe
            # round trips (requests counts pipe messages per worker; the
            # 'after' snapshot itself costs one metrics probe per
            # worker, hence the +2 allowance — per-query dispatch would
            # show 6 + 2 here).
            assert after["dispatches"] - before["dispatches"] == 6
            trips = sum(
                entry["requests"]
                for entry in after["worker_status"].values()
            ) - sum(
                entry["requests"]
                for entry in before["worker_status"].values()
            )
            assert trips <= 2 + 2
