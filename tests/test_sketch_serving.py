"""Integration tests: admission, pruning and rate limiting in serving.

Covers the contracts ``repro.sketch`` and the router add to serving:

* cache admission — under pressure only hot keywords earn LRU slots,
  and an update touching a hot keyword invalidates the cached results
  *without* resetting the keyword's heat (heat measures query traffic,
  not index state);
* cluster — per-worker heat counters merge into one consistent view,
  and the router answers queries that need an empty keyword without
  dispatching while staying result-identical on live ones;
* HTTP — per-client leaky buckets return 429 + ``Retry-After`` keyed by
  ``X-Client-Id``, counted apart from 503/504 all the way through the
  JSON metrics, the Prometheus exposition, and the loadgen replay.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import Query, UpdateOp
from repro.core import KSpin
from repro.datasets import load_dataset
from repro.datasets.workloads import Query as WorkloadQuery
from repro.distance import DijkstraOracle
from repro.lowerbound import AltLowerBounder
from repro.serve import ClusterCoordinator, Engine, QueryServer, ServeClient, replay

KW0 = Query(0, ("kw0000",), k=3)  # the query most tests below repeat


@pytest.fixture(scope="module")
def world():
    return load_dataset("DE-S")


@pytest.fixture()
def kspin(world):
    return KSpin(
        world.graph,
        world.keywords,
        oracle=DijkstraOracle(world.graph),
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
    )


# ----------------------------------------------------------------------
# Engine: hot-keyword cache admission
# ----------------------------------------------------------------------
class TestHotKeywordAdmission:
    def test_spare_capacity_admits_everything(self, kspin):
        engine = Engine(kspin, cache_size=128)
        engine.execute(KW0)
        assert engine.execute(KW0).cached

    def test_full_cache_admits_only_hot_keywords(self, kspin):
        engine = Engine(kspin, cache_size=2)
        # Fill the two slots while capacity is spare.
        engine.execute(Query(0, ["kw0001"], k=3))
        engine.execute(Query(0, ["kw0002"], k=3))
        assert engine.cache.full()
        # Cold keyword under pressure: executed but not cached.
        engine.execute(Query(5, ["kw0003"], k=3))
        assert not engine.execute(Query(5, ["kw0003"], k=3)).cached  # heat now 2
        # Same query again: the keyword crossed the hot threshold on the
        # previous call, so that call was admitted — this one hits.
        assert engine.execute(Query(5, ["kw0003"], k=3)).cached
        admission = engine.admission.snapshot()
        assert admission["rejected"] >= 1
        assert admission["admitted"] >= 1

    def test_update_on_hot_keyword_invalidates_but_keeps_heat(self, kspin):
        engine = Engine(kspin, cache_size=64)
        stale = engine.execute(KW0).pairs()
        assert engine.execute(KW0).cached
        assert engine.admission.is_hot(["kw0000"])
        heat_before = engine.admission.heat("kw0000")

        engine.apply(UpdateOp("insert", object=0, document=["kw0000"]))

        answer = engine.execute(KW0)
        assert not answer.cached  # the update invalidated the entry
        assert answer.pairs() != stale
        assert answer.pairs()[0] == (0, 0.0)
        # Heat survives the invalidation: it tracks query traffic, so
        # the refreshed result is immediately cache-worthy again.
        assert engine.admission.heat("kw0000") >= heat_before
        assert engine.admission.is_hot(["kw0000"])
        assert engine.execute(KW0).cached

    def test_admission_block_in_metrics(self, kspin):
        engine = Engine(kspin, cache_size=4)
        engine.execute(KW0)
        snapshot = engine.metrics_snapshot()
        admission = snapshot["cache"]["admission"]
        assert admission["observed"] >= 1
        assert "counter" in admission
        assert "sketch" not in snapshot


# ----------------------------------------------------------------------
# Cluster: merged heat and empty-keyword pruning
# ----------------------------------------------------------------------
class TestClusterSketches:
    def test_heat_consistent_across_workers_and_update_invalidates(self, kspin):
        query = Query(vertex=0, keywords=("kw0000",), k=3)
        with ClusterCoordinator(
            kspin, num_workers=2, placement="replicate",
            cache_size=32, health_interval=5.0,
        ) as cluster:
            # Round-robin sends the repeats to both workers: each holds
            # a partial heat count no single worker could act on alone.
            stale = [cluster.execute(query).pairs() for _ in range(6)][0]
            merged = cluster.metrics_snapshot()["cache"]["admission"]
            assert merged["observed"] >= 6
            assert dict(merged["top"]).get("kw0000", 0) >= 6

            summary = cluster.apply(
                UpdateOp("insert", object=0, document=["kw0000"])
            )
            assert summary["applied"] == "insert"

            fresh = cluster.execute(query)
            assert fresh.pairs() != stale
            assert fresh.pairs()[0] == (0, 0.0)
            # The merged heat survives the invalidation fan-out.
            merged = cluster.metrics_snapshot()["cache"]["admission"]
            assert dict(merged["top"]).get("kw0000", 0) >= 6

    def test_empty_keyword_short_circuits_and_matches(self, kspin):
        live = Query(vertex=0, keywords=("kw0000", "kw0001"), k=3)
        salted = Query(
            vertex=0, keywords=("kw0000", "kw0001", "zz-missing"), k=3
        )
        dead = Query(
            vertex=0, keywords=("kw0000", "zz-missing"), k=3, mode="and"
        )
        with ClusterCoordinator(
            kspin, num_workers=2, placement="shard-by-keyword",
            cache_size=0, health_interval=5.0,
        ) as cluster:
            expected = kspin.execute(live).pairs()
            assert cluster.execute(live).pairs() == expected
            # A missing disjunctive keyword changes nothing (dead
            # keywords contribute no heaps).
            assert cluster.execute(salted).pairs() == expected
            # Conjunctive on an absent keyword: answered empty with zero
            # dispatches.
            before = cluster.metrics_snapshot()["cluster"]
            assert cluster.execute(dead).pairs() == []
            after = cluster.metrics_snapshot()["cluster"]
            assert after["short_circuits"] == before["short_circuits"] + 1
            assert after["dispatches"] == before["dispatches"]
            assert "sketch" not in cluster.metrics_snapshot()


# ----------------------------------------------------------------------
# HTTP: per-client rate limiting end to end
# ----------------------------------------------------------------------
class TestRateLimitedServer:
    @pytest.fixture()
    def server(self, kspin):
        engine = Engine(kspin, cache_size=64)
        server = QueryServer(
            engine, port=0, workers=4, rate_limit=1.0, rate_burst=2.0
        )
        with server.start_background() as running:
            yield running

    def _fire(self, server, client_id):
        request = urllib.request.Request(
            f"{server.url}/v1/query",
            data=json.dumps(
                {"vertex": 0, "k": 2, "keywords": ["kw0000"]}
            ).encode(),
            headers={
                "Content-Type": "application/json",
                "X-Client-Id": client_id,
            },
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            envelope = json.loads(response.read())
        return envelope.get("result", envelope)

    def test_429_with_retry_after_keyed_by_client(self, server):
        statuses = []
        retry_error = None
        for _ in range(5):
            try:
                self._fire(server, "greedy")
                statuses.append(200)
            except urllib.error.HTTPError as error:
                statuses.append(error.code)
                if error.code == 429 and retry_error is None:
                    retry_error = {
                        "headers": dict(error.headers),
                        "body": json.loads(error.read()),
                    }
        assert statuses.count(200) == 2  # the configured burst
        assert statuses.count(429) == 3
        assert retry_error is not None
        assert int(retry_error["headers"]["Retry-After"]) >= 1
        body = retry_error["body"]
        assert body["error"]["code"] == "rate_limited"
        assert body["error"]["retry"] is True
        assert body["error"]["retry_after"] > 0
        # A different identity has its own bucket.
        assert self._fire(server, "polite")["results"] is not None

    def test_healthz_and_metrics_exempt(self, server):
        client = ServeClient(server.url, client_id="greedy")
        for _ in range(4):
            try:
                client.query({"vertex": 0, "k": 2, "keywords": ["kw0000"]})
            except urllib.error.HTTPError:
                pass
        for _ in range(10):  # never limited: operators stay in
            assert client.healthz()["status"] == "ok"
        metrics = client.metrics()
        assert metrics["rate_limited"] >= 1
        assert metrics["shed"] == 0  # 429s are not 503s
        assert metrics["timeouts"] == 0  # ... nor 504s
        limiter = metrics["rate_limiter"]
        assert limiter["limited"] >= 1
        assert limiter["tracked_clients"] >= 1

    def test_prometheus_exposition_separates_429(self, server):
        client = ServeClient(server.url, client_id="greedy")
        for _ in range(4):
            try:
                client.query({"vertex": 0, "k": 2, "keywords": ["kw0000"]})
            except urllib.error.HTTPError:
                pass
        with urllib.request.urlopen(
            f"{server.url}/v1/metrics?format=prometheus", timeout=10
        ) as response:
            text = response.read().decode()
        assert "repro_rate_limited_total" in text
        assert "repro_rate_limiter_limited_total" in text
        assert "repro_shed_total 0" in text
        assert "repro_sketch_" not in text
        assert "repro_cache_admitted_total" in text

    def test_loadgen_counts_limited_separately(self, server):
        client = ServeClient(server.url)
        queries = [
            WorkloadQuery(vertex=0, keywords=("kw0000",)) for _ in range(12)
        ]
        result = replay(client, queries, concurrency=3, k=2, clients=2)
        assert result.limited > 0
        assert result.ok >= 2  # each identity got its burst through
        assert result.errors == 0
        assert result.ok + result.limited == result.requests
        assert result.as_dict()["limited"] == result.limited


class TestRateLimiterConfig:
    def test_rejects_non_positive_rate(self, kspin):
        engine = Engine(kspin, cache_size=0)
        with pytest.raises(ValueError):
            QueryServer(engine, port=0, rate_limit=0.0)

    def test_disabled_by_default(self, kspin):
        engine = Engine(kspin, cache_size=0)
        server = QueryServer(engine, port=0, workers=2)
        try:
            assert server.rate_limiter is None
            assert "rate_limiter" not in server.metrics_snapshot()
        finally:
            server.pool.close(wait=False)
            server.server_close()
