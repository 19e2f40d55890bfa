"""Per-client rate limiting: the leaky bucket and its HTTP front door.

* **Leaky buckets** admit the configured burst, refuse with a
  ``Retry-After``, drain at the configured rate and isolate clients.
* **Configuration** is validated when the limiter is built, so a bad
  rate or burst fails at startup (``repro serve`` exits 2) instead of
  turning every limited request into a 500.
* **HTTP** — per-client buckets return 429 + ``Retry-After`` keyed by
  ``X-Client-Id``, counted apart from 503/504 all the way through the
  JSON metrics, the Prometheus exposition and the loadgen replay; a
  batch larger than the whole burst is a 413 that says not to retry.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core import KSpin
from repro.datasets import load_dataset
from repro.datasets.workloads import Query as WorkloadQuery
from repro.distance import DijkstraOracle
from repro.lowerbound import AltLowerBounder
from repro.serve import Engine, QueryServer, ServeClient, replay
from repro.serve.ratelimit import ClientRateLimiter, LeakyBucket


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


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Leaky buckets
# ----------------------------------------------------------------------
class TestLeakyBucket:
    def test_burst_then_refusal_with_retry_after(self):
        clock = FakeClock()
        bucket = LeakyBucket(rate=1.0, capacity=2.0, clock=clock)
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        retry = bucket.try_acquire()
        assert retry is not None and retry > 0
        clock.advance(retry)
        assert bucket.try_acquire() is None

    def test_drains_at_configured_rate(self):
        clock = FakeClock()
        bucket = LeakyBucket(rate=2.0, capacity=4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_acquire() is None
        clock.advance(1.0)  # drains 2 tokens
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is not None

    def test_limiter_isolates_clients(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(rate=1.0, capacity=1.0, clock=clock)
        assert limiter.check("greedy") is None
        assert limiter.check("greedy") is not None  # over budget
        assert limiter.check("polite") is None  # unaffected
        snap = limiter.snapshot()
        assert snap["allowed"] == 2 and snap["limited"] == 1

    def test_limiter_bounds_tracked_clients(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(
            rate=1.0, capacity=1.0, clock=clock, max_clients=4
        )
        for i in range(20):
            limiter.check(f"client-{i}")
            clock.advance(0.01)
        assert limiter.tracked_clients() <= 4


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
        assert "repro_cache_hits_total" in text
        assert "repro_cache_admi" not in text  # a full cache is a plain LRU

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


class TestOversizedBatch:
    BURST = 4

    def _post_batch(self, server, size, client_id="bulk"):
        queries = [
            {"vertex": v, "k": 2, "keywords": ["kw0000"]} for v in range(size)
        ]
        request = urllib.request.Request(
            f"{server.url}/v1/batch",
            data=json.dumps({"queries": queries}).encode(),
            headers={"Content-Type": "application/json", "X-Client-Id": client_id},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())["result"]

    def test_batch_above_burst_is_413_not_retry_forever(self, kspin):
        with QueryServer(
            Engine(kspin, cache_size=0), port=0, workers=2,
            rate_limit=1.0, rate_burst=float(self.BURST),
        ).start_background() as running:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post_batch(running, self.BURST + 1)
            assert excinfo.value.code == 413
            assert "Retry-After" not in excinfo.value.headers
            error = json.loads(excinfo.value.read())["error"]
            assert error["code"] == "payload_too_large"
            assert error["retry"] is False
            assert f"batch of {self.BURST + 1} queries" in error["message"]
            assert f"burst of {self.BURST}" in error["message"]
            # Nothing was charged: a full-burst batch still fits at once.
            assert self._post_batch(running, self.BURST)["ok_count"] == self.BURST
            metrics = running.metrics_snapshot()
            assert metrics["errors"] == {"/batch": 1}
            assert metrics["rate_limited"] == 0
            assert metrics["rate_limiter"]["limited"] == 0


# ----------------------------------------------------------------------
# Configuration: validated once, when the limiter is built
# ----------------------------------------------------------------------
class TestRateLimiterConfig:
    def test_rejects_non_positive_rate(self, kspin):
        engine = Engine(kspin, cache_size=0)
        with pytest.raises(ValueError):
            QueryServer(engine, port=0, rate_limit=0.0)

    @pytest.mark.parametrize("rate, burst", [(5.0, 0.5), (0.0, 10.0), (-1.0, 10.0)])
    def test_limiter_validates_at_construction(self, rate, burst):
        with pytest.raises(ValueError):
            ClientRateLimiter(rate=rate, capacity=burst)

    def test_burst_below_one_fails_at_startup(self, kspin):
        with pytest.raises(ValueError, match="burst must be at least 1"):
            QueryServer(
                Engine(kspin, cache_size=0), port=0, rate_limit=5.0, rate_burst=0.5
            )

    def test_disabled_by_default(self, kspin):
        engine = Engine(kspin, cache_size=0)
        server = QueryServer(engine, port=0, workers=2)
        try:
            assert server.rate_limiter is None
            assert "rate_limiter" not in server.metrics_snapshot()
        finally:
            server.pool.close(wait=False)
            server.server_close()

    def test_cli_bad_burst_exits_2(self, capsys):
        assert main(
            ["serve", "--dataset", "DE-S", "--oracle", "dijkstra",
             "--landmarks", "4", "--port", "0",
             "--rate-limit", "5", "--rate-burst", "0.5"]
        ) == 2
        assert "burst must be at least 1" in capsys.readouterr().err

    def test_cli_burst_without_rate_exits_2(self, capsys):
        assert main(["serve", "--rate-burst", "0.5"]) == 2
        assert "--rate-burst needs --rate-limit" in capsys.readouterr().err

    def test_cli_negative_cluster_exits_2(self, capsys, tmp_path):
        # Rejected before any index is opened (the path does not exist).
        missing = str(tmp_path / "missing.kspin")
        assert main(["serve", "--cluster", "-1", "--index", missing]) == 2
        assert "--cluster must be non-negative" in capsys.readouterr().err
