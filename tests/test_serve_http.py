"""Tests for the HTTP front end: concurrency, updates, metrics, shedding."""

import concurrent.futures
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import Query
from repro.core import KSpin
from repro.datasets import load_dataset
from repro.distance import DijkstraOracle
from repro.lowerbound import AltLowerBounder
from repro.serve import Engine, QueryServer, ServeClient
from repro.serve.http import _MAX_BODY_BYTES


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


@pytest.fixture()
def server(kspin):
    engine = Engine(kspin, cache_size=256)
    with QueryServer(engine, port=0, workers=8).start_background() as running:
        yield running


@pytest.fixture()
def client(server):
    return ServeClient(server.url)


class TestQueryEndpoints:
    def test_concurrent_requests_match_single_threaded(self, client, kspin):
        """>= 32 overlapping requests, all identical to direct KSpin calls."""
        cases = [
            (vertex, k, keywords, conjunctive)
            for vertex in (0, 5, 17, 100)
            for k, keywords, conjunctive in (
                (3, ["kw0000"], False),
                (2, ["kw0001", "kw0002"], False),
                (2, ["kw0000", "kw0001"], True),
                (4, ["kw0003"], False),
            )
        ] * 2  # 32 requests, repeats exercise the cache under concurrency
        expected = {
            (v, k, tuple(kw), c): kspin.execute(
                Query(v, kw, k=k, mode="and" if c else "or")
            ).pairs()
            for v, k, kw, c in cases
        }

        def fire(case):
            vertex, k, keywords, conjunctive = case
            body = client.query(
                {
                    "vertex": vertex,
                    "k": k,
                    "keywords": keywords,
                    "conjunctive": conjunctive,
                }
            )
            return case, [(obj, value) for obj, value in body["results"]]

        with concurrent.futures.ThreadPoolExecutor(max_workers=32) as pool:
            for case, results in pool.map(fire, cases):
                vertex, k, keywords, conjunctive = case
                assert results == expected[(vertex, k, tuple(keywords), conjunctive)]

    def test_topk_matches_direct(self, client, kspin):
        body = client.query(
            {"vertex": 5, "k": 3, "keywords": ["kw0000", "kw0001"], "kind": "topk"}
        )
        assert [(o, s) for o, s in body["results"]] == kspin.execute(
            Query(5, ["kw0000", "kw0001"], k=3, kind="topk")
        ).pairs()

    def test_get_with_query_string(self, server, kspin):
        """What ``GET /v1/bknn`` and ``/v1/topk`` answered, at ``/v1/query``."""
        for query_string, query in (
            (
                "vertex=0&k=3&keywords=kw0000,kw0001",
                Query(0, ("kw0000", "kw0001"), k=3),
            ),
            (
                "vertex=0&k=3&keywords=kw0000,kw0001&conjunctive=true",
                Query(0, ("kw0000", "kw0001"), k=3, mode="and"),
            ),
            (
                "kind=topk&vertex=5&k=3&keywords=kw0000,kw0001",
                Query(5, ("kw0000", "kw0001"), k=3, kind="topk"),
            ),
        ):
            with urllib.request.urlopen(
                f"{server.url}/v1/query?{query_string}"
            ) as response:
                body = json.loads(response.read())
            assert body["ok"] is True
            result = body["result"]
            assert [
                (o, d) for o, d in result["results"]
            ] == kspin.execute(query).pairs(), query_string
            assert "stats" in result and "hits" in result

    def test_generic_query_endpoint(self, client, kspin):
        result = client.query(
            {"vertex": 5, "k": 3, "keywords": ["kw0000"], "kind": "topk"}
        )
        assert [(o, s) for o, s in result["results"]] == kspin.execute(
            Query(5, ["kw0000"], k=3, kind="topk")
        ).pairs()

    @pytest.mark.parametrize(
        "path", ["/bknn", "/query", "/healthz", "/v1/bknn", "/v1/topk"]
    )
    def test_removed_routes_answer_typed_404(self, server, path):
        """Only /v1/query|batch|update (and the /v1 operational routes) exist."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{server.url}{path}?vertex=0&k=3&keywords=kw0000"
            )
        assert excinfo.value.code == 404
        assert "Deprecation" not in excinfo.value.headers
        body = json.loads(excinfo.value.read())
        assert body["ok"] is False
        assert body["error"]["code"] == "not_found"

    def test_topk_conjunctive_is_bad_request(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/query",
            data=json.dumps(
                {"vertex": 0, "keywords": ["kw0000"], "kind": "topk", "mode": "and"}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["ok"] is False
        assert body["error"]["code"] == "bad_request"

    def test_cache_flag_round_trip(self, client):
        payload = {"vertex": 3, "k": 2, "keywords": ["kw0002"]}
        assert client.query(payload)["cached"] is False
        assert client.query(payload)["cached"] is True


class TestUpdateEndpoint:
    def test_insert_invalidates_and_changes_answer(self, client, kspin):
        payload = {"vertex": 0, "k": 3, "keywords": ["kw0000"]}
        stale = client.query(payload)
        assert client.query(payload)["cached"] is True
        response = client.update(op="insert", object=0, document=["kw0000"])
        assert response["applied"] == "insert" and response["cache_evicted"] >= 1
        fresh = client.query(payload)
        assert fresh["cached"] is False
        assert fresh["results"] != stale["results"]
        assert fresh["results"][0] == [0, 0.0]
        assert [(o, d) for o, d in fresh["results"]] == kspin.execute(
            Query.from_dict(payload)
        ).pairs()

    def test_delete_invalidates_and_changes_answer(self, client, kspin):
        payload = {"vertex": 1, "k": 2, "keywords": ["kw0001"]}
        before = client.query(payload)["results"]
        nearest = before[0][0]
        client.update(op="delete", object=nearest)
        after = client.query(payload)["results"]
        assert nearest not in [obj for obj, _ in after]
        assert [(o, d) for o, d in after] == kspin.execute(
            Query.from_dict(payload)
        ).pairs()

    def test_rebuild_op(self, client):
        response = client.update(op="rebuild")
        assert response["applied"] == "rebuild"
        assert "rebuilt" in response

    def test_bad_op_is_400(self, client):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            client.update(op="defragment")
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["ok"] is False
        assert body["error"]["code"] == "bad_request"
        assert "message" in body["error"]


class TestOperationalEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["keywords"] > 0

    def test_metrics_exposes_required_signals(self, client):
        client.query({"vertex": 0, "k": 2, "keywords": ["kw0000"]})
        client.query({"vertex": 0, "k": 2, "keywords": ["kw0000"]})
        metrics = client.metrics()
        assert metrics["requests_total"] >= 2
        for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms"):
            assert metrics["latency"][key] >= 0
        assert metrics["cache"]["hit_rate"] > 0
        assert "queue_depth" in metrics and "shed" in metrics
        stats = metrics["query_stats"]
        assert stats["distance_computations"] > 0
        assert stats["lower_bound_computations"] > 0

    def test_unknown_endpoint_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope")
        assert excinfo.value.code == 404

    def test_missing_params_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/v1/query?vertex=0")
        assert excinfo.value.code == 400


class TestObservabilityEndpoints:
    @pytest.fixture()
    def traced_server(self, kspin):
        engine = Engine(kspin, cache_size=256)
        with QueryServer(
            engine, port=0, workers=4, trace=True, slow_query_threshold=0.0
        ).start_background() as running:
            yield running

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.headers, response.read().decode()

    def test_prometheus_exposition_parses(self, traced_server):
        from tests.test_observability import parse_exposition

        client = ServeClient(traced_server.url)
        client.query({"vertex": 0, "k": 2, "keywords": ["kw0000"]})
        client.query({"vertex": 0, "k": 2, "keywords": ["kw0000"]})
        headers, text = self._get(
            f"{traced_server.url}/v1/metrics?format=prometheus"
        )
        assert headers["Content-Type"].startswith("text/plain")
        samples, typed = parse_exposition(text)
        assert "repro_requests_total" in samples
        assert typed["repro_request_latency_seconds"] == "histogram"
        total = sum(
            int(value) for _, value in samples["repro_requests_total"]
        )
        assert total >= 2
        assert "repro_cache_hits_total" in samples
        assert "repro_tracing_enabled" in samples

    def test_unknown_metrics_format_is_400(self, traced_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{traced_server.url}/v1/metrics?format=xml"
            )
        assert excinfo.value.code == 400

    def test_debug_traces_shows_span_trees(self, traced_server):
        client = ServeClient(traced_server.url)
        client.query({"vertex": 0, "k": 2, "keywords": ["kw0001"]})
        _, raw = self._get(f"{traced_server.url}/v1/debug/traces")
        body = json.loads(raw)["result"]
        assert body["tracing"]["enabled"] is True
        assert body["tracing"]["traces_finished"] >= 1
        names = [trace["name"] for trace in body["recent"]]
        assert "http.query" in names
        trace = next(t for t in body["recent"] if t["name"] == "http.query")
        assert trace["trace_id"]
        child_names = {child["name"] for child in trace.get("children", ())}
        assert "engine.execute" in child_names
        # With threshold 0 every trace also lands in the slow log.
        assert len(body["slow"]) >= 1

    def test_stage_histograms_populated_when_tracing(self, traced_server):
        client = ServeClient(traced_server.url)
        client.query({"vertex": 7, "k": 2, "keywords": ["kw0002"]})
        metrics = client.metrics()
        stages = metrics["stages"]
        assert stages, "tracing should feed per-stage histograms"
        assert any(
            stage.startswith(("engine.", "processor.")) for stage in stages
        )
        assert metrics["error_latency"]["count"] == 0
        assert metrics["tracing"]["enabled"] is True

    def test_error_latency_not_zero_duration(self, traced_server):
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{traced_server.url}/v1/query?vertex=0")
        snapshot = traced_server.metrics_snapshot()
        assert snapshot["error_latency"]["count"] == 1
        # The errored request's real elapsed time is recorded, not 0.0.
        assert snapshot["error_latency"]["total"] > 0.0


class TestOverload:
    def test_saturated_queue_sheds_with_503(self, kspin):
        """With the one worker blocked and no queue, requests get 503."""
        engine = Engine(kspin, cache_size=0)
        with QueryServer(
            engine, port=0, workers=1, max_queue=0
        ).start_background() as server:
            release = threading.Event()
            server.pool.submit(release.wait)  # occupy the only worker
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        f"{server.url}/v1/query?vertex=0&keywords=kw0000", timeout=10
                    )
                assert excinfo.value.code == 503
                body = json.loads(excinfo.value.read())
                assert body["ok"] is False
                assert body["error"]["code"] == "saturated"
                assert body["error"]["retry"] is True
            finally:
                release.set()
            assert server.metrics_snapshot()["shed"] >= 1

    def test_deadline_miss_times_out_with_504(self, kspin):
        """An admitted request that cannot start by its deadline gets 504."""
        engine = Engine(kspin, cache_size=0)
        with QueryServer(
            engine, port=0, workers=1, max_queue=4, deadline=0.2
        ).start_background() as server:
            release = threading.Event()
            server.pool.submit(release.wait)
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        f"{server.url}/v1/query?vertex=0&keywords=kw0000", timeout=10
                    )
                assert excinfo.value.code == 504
                body = json.loads(excinfo.value.read())
                assert body["error"]["code"] == "deadline_exceeded"
            finally:
                release.set()
            assert server.metrics_snapshot()["timeouts"] >= 1


# ----------------------------------------------------------------------
# POST /v1/batch: one envelope, per-item outcomes
# ----------------------------------------------------------------------
class TestContentLength:
    """A hostile ``Content-Length`` gets a typed refusal on every POST route."""

    @staticmethod
    def _post_with_length(server, path, content_length):
        """Raw bytes over a socket; returns ``(status, envelope)``."""
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\n"
                "Host: test\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {content_length}\r\n\r\n".encode()
                + b'{"vertex": 0, "keywords": ["kw0000"]}'
            )
            reply = b""
            while chunk := sock.recv(65536):  # the server closes after replying
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(body)

    @pytest.mark.parametrize("path", ["/v1/query", "/v1/batch", "/v1/update"])
    @pytest.mark.parametrize(
        "content_length, status, code",
        [
            ("abc", 400, "bad_request"),
            ("-5", 400, "bad_request"),
            (str(_MAX_BODY_BYTES + 1), 413, "payload_too_large"),
        ],
    )
    def test_refused_with_typed_envelope_and_server_survives(
        self, server, client, capfd, path, content_length, status, code
    ):
        got, envelope = self._post_with_length(server, path, content_length)
        assert got == status
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == code
        assert server.metrics_snapshot()["errors"] == {path[len("/v1"):]: 1}
        assert client.healthz()["status"] == "ok"  # the next request is answered
        assert "Traceback" not in capfd.readouterr().err

    def test_refusal_with_unread_body_ends_the_connection(self, server):
        """The helper reads to EOF, so it only returns if the server hung up."""
        body_length = len(b'{"vertex": 0, "keywords": ["kw0000"]}')
        status, envelope = self._post_with_length(server, "/v1/bknn", body_length)
        assert status == 404
        assert envelope["error"]["code"] == "not_found"

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/query", b'{"vertex": 0, "keywords": ["kw0000"]}'),
            ("/v1/update", b'{"op": "rebuild"}'),
        ],
        ids=["query", "update"],
    )
    def test_rate_limited_post_leaves_keep_alive_usable(self, kspin, path, body):
        """A 429 does not hang up, so it must consume the body it refuses:
        the next request on the socket gets a well-formed reply."""
        request = (
            f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        with QueryServer(
            Engine(kspin, cache_size=0), port=0, workers=2,
            rate_limit=0.001, rate_burst=1.0,
        ).start_background() as running, socket.create_connection(
            running.server_address[:2], timeout=10
        ) as sock:
            replies = sock.makefile("rb")
            statuses = []
            for _ in range(3):  # the one-token bucket admits only the first
                sock.sendall(request)
                status_line = replies.readline().split()
                assert status_line[0] == b"HTTP/1.1", status_line
                headers = {}
                while (line := replies.readline().strip()):
                    name, _, value = line.partition(b":")
                    headers[name.lower()] = value.strip()
                envelope = json.loads(replies.read(int(headers[b"content-length"])))
                statuses.append(int(status_line[1]))
                assert envelope["ok"] is (statuses[-1] == 200)
            assert statuses == [200, 429, 429]


class TestBatchEndpoint:
    def _post_batch(self, server, queries, client_id=None):
        headers = {"Content-Type": "application/json"}
        if client_id is not None:
            headers["X-Client-Id"] = client_id
        request = urllib.request.Request(
            f"{server.url}/v1/batch",
            data=json.dumps({"queries": queries}).encode(),
            headers=headers,
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())["result"]

    def test_batch_matches_per_query_endpoints(self, server, client, kspin):
        queries = [
            {"vertex": 0, "k": 3, "keywords": ["kw0000"]},
            {"vertex": 5, "k": 2, "keywords": ["kw0001", "kw0002"]},
            {"vertex": 2, "k": 2, "keywords": ["kw0003"], "kind": "topk"},
        ]
        body = self._post_batch(server, queries)
        assert body["count"] == 3 and body["ok_count"] == 3
        singles = [
            client.query({"vertex": 0, "k": 3, "keywords": ["kw0000"]}),
            client.query({"vertex": 5, "k": 2, "keywords": ["kw0001", "kw0002"]}),
            client.query({"vertex": 2, "k": 2, "keywords": ["kw0003"], "kind": "topk"}),
        ]
        for item, single in zip(body["items"], singles):
            assert item["ok"] is True
            assert item["result"]["hits"] == single["hits"]

    def test_bad_item_is_isolated_never_whole_batch_400(self, server):
        queries = [
            {"vertex": 0, "k": 2, "keywords": ["kw0000"]},
            # conjunctive top-k: definitionally unsupported
            {"vertex": 0, "k": 2, "keywords": ["kw0000", "kw0001"],
             "kind": "topk", "mode": "and"},
            {"vertex": 1, "k": 2, "keywords": ["kw0001"]},
        ]
        body = self._post_batch(server, queries)  # HTTP 200, not 400
        assert body["count"] == 3 and body["ok_count"] == 2
        assert body["items"][0]["ok"] and body["items"][2]["ok"]
        failed = body["items"][1]
        assert failed["ok"] is False
        assert failed["error"]["code"] == "bad_request"
        assert "message" in failed["error"]

    def test_unparseable_item_is_isolated_too(self, server):
        queries = [
            {"vertex": 0, "k": 2, "keywords": ["kw0000"]},
            {"vertex": 0, "k": 2},  # no keywords: invalid Query
        ]
        body = self._post_batch(server, queries)
        assert body["ok_count"] == 1
        assert body["items"][1]["ok"] is False
        assert body["items"][1]["error"]["code"] == "bad_request"

    def test_malformed_envelope_is_whole_batch_400(self, server):
        for payload in ({}, {"queries": []}, {"queries": "nope"}):
            request = urllib.request.Request(
                f"{server.url}/v1/batch",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

    def test_get_is_bad_request(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/v1/batch", timeout=10)
        assert excinfo.value.code == 400

    def test_metrics_expose_batch_size_histogram(self, server, client):
        self._post_batch(server, [
            {"vertex": 0, "k": 2, "keywords": ["kw0000"]},
            {"vertex": 1, "k": 2, "keywords": ["kw0001"]},
        ])
        metrics = client.metrics()
        sizes = metrics["batch_size"]
        assert sizes["count"] == 1
        assert sizes["mean"] == pytest.approx(2.0, rel=0.2)  # log buckets

    def test_batch_charged_its_size_by_rate_limiter(self, kspin):
        engine = Engine(kspin, cache_size=0)
        with QueryServer(
            engine, port=0, workers=4, rate_limit=1.0, rate_burst=4.0
        ).start_background() as running:
            queries = [
                {"vertex": v, "k": 2, "keywords": ["kw0000"]}
                for v in range(3)
            ]
            # 3 of 4 burst tokens: admitted.
            assert self._post_batch(running, queries, "bulk")["ok_count"] == 3
            # 3 more would need 6 > 4: refused atomically, with a
            # Retry-After covering the *whole* batch.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post_batch(running, queries, "bulk")
            assert excinfo.value.code == 429
            body = json.loads(excinfo.value.read())
            assert body["error"]["code"] == "rate_limited"
            assert int(excinfo.value.headers["Retry-After"]) >= 2
            # Another identity is unaffected.
            assert self._post_batch(running, queries, "solo")["ok_count"] == 3

    def test_batch_trace_has_per_query_children(self, kspin):
        engine = Engine(kspin, cache_size=0)
        with QueryServer(
            engine, port=0, workers=4, trace=True
        ).start_background() as running:
            self._post_batch(running, [
                {"vertex": 0, "k": 2, "keywords": ["kw0000"]},
                {"vertex": 3, "k": 2, "keywords": ["kw0001"]},
            ])
            with urllib.request.urlopen(
                f"{running.url}/v1/debug/traces", timeout=30
            ) as response:
                body = json.loads(response.read())["result"]
            trace = next(
                t for t in body["recent"] if t["name"] == "http.batch"
            )
            assert trace["attrs"]["batch"] == 2
            names = [
                node["name"]
                for child in trace.get("children", ())
                for node in [child, *child.get("children", ())]
            ]
            assert "engine.execute" in names
