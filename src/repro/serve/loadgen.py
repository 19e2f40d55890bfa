"""Load generation: a stdlib HTTP client and a concurrency-ladder replay.

The paper's Table 1 frames evaluation as *query throughput* over a
memory-resident index; this module measures the served analogue.
:class:`ServeClient` is a minimal ``urllib``-based JSON client (no new
dependencies), and :func:`replay` fires a workload at the server from
``concurrency`` client threads, collecting throughput, latency
percentiles, and error/shed counts.  The serve-throughput benchmark
sweeps ``replay`` over an increasing concurrency ladder.

Rate-limiter exercises: ``ServeClient`` can carry a ``client_id`` (sent
as the ``X-Client-Id`` header the server's leaky buckets key on), and
``replay(..., clients=N)`` spreads requests round-robin over ``N``
distinct identities, counting 429 refusals separately from 503 sheds.
Run directly (``python -m repro.serve.loadgen --url ... --clients 4``)
to fire the Zipf workload at a running server.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from repro.datasets.workloads import Query
from repro.serve.metrics import LatencyRecorder


class ServeClient:
    """Tiny JSON client for a running :class:`~repro.serve.http.QueryServer`.

    Speaks the versioned ``/v1`` surface and unwraps the response
    envelope: every method returns the ``"result"`` payload (the query
    methods therefore yield the ``QueryResult.to_dict()`` shape with
    ``results``/``hits``/``cached``/``stats``).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        client_id: str | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Sent as ``X-Client-Id`` so the server's per-client leaky
        #: buckets see this client as one identity regardless of which
        #: thread or socket carries the request.
        self.client_id = client_id

    def _request(self, path: str, payload: dict | None = None) -> dict:
        url = f"{self.base_url}{path}"
        headers: dict[str, str] = {}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        if payload is None:
            request = urllib.request.Request(url, headers=headers)
        else:
            headers["Content-Type"] = "application/json"
            request = urllib.request.Request(
                url,
                data=json.dumps(payload).encode(),
                headers=headers,
                method="POST",
            )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            envelope = json.loads(response.read())
        return envelope.get("result", envelope)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def query(self, payload: dict) -> dict:
        """POST a full :class:`repro.api.Query` dict to ``/v1/query``."""
        return self._request("/v1/query", payload)

    def batch(self, queries: list[dict]) -> dict:
        """POST many query dicts to ``/v1/batch`` in one request.

        Returns the raw batch result: ``{"items": [...], "count": ...,
        "ok_count": ...}`` with per-item ``ok``/``result``/``error``.
        """
        return self._request("/v1/batch", {"queries": list(queries)})

    def update(self, **payload) -> dict:
        return self._request("/v1/update", payload)

    def healthz(self) -> dict:
        return self._request("/v1/healthz")

    def metrics(self) -> dict:
        return self._request("/v1/metrics")


@dataclass
class LoadResult:
    """One replay's aggregate outcome."""

    concurrency: int
    requests: int
    ok: int
    shed: int
    errors: int
    elapsed_seconds: float
    qps: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    cache_hits: int = 0
    limited: int = 0
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "concurrency": self.concurrency,
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "limited": self.limited,
            "errors": self.errors,
            "elapsed_seconds": self.elapsed_seconds,
            "qps": self.qps,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "cache_hits": self.cache_hits,
            **self.details,
        }


def replay(
    client: ServeClient,
    queries: list[Query],
    concurrency: int,
    k: int = 10,
    kind: str = "bknn",
    clients: int = 1,
    batch: int = 1,
) -> LoadResult:
    """Fire ``queries`` at the server from ``concurrency`` threads.

    Requests are spread round-robin over the client threads; 503 sheds
    and 429 rate-limit refusals are counted separately from hard errors
    so saturation studies can tell graceful degradation from breakage.

    ``clients`` spreads the requests over that many distinct client
    identities (``<base>-0`` .. ``<base>-N-1``, where the base is the
    passed client's id or ``"loadgen"``) so per-client rate limiting is
    exercisable: one greedy identity trips 429s without starving the
    rest.

    ``batch`` groups the workload into ``/v1/batch`` requests of that
    many queries each (1 sends one ``/v1/query`` per query).  Counters stay
    *per query*: ``requests``/``ok``/``qps`` count queries so batched
    and unbatched runs compare directly; a refused batch counts every
    carried query as refused (the server charges the same way).
    """
    if concurrency < 1:
        raise ValueError("concurrency must be positive")
    if clients < 1:
        raise ValueError("clients must be positive")
    if batch < 1:
        raise ValueError("batch must be positive")
    if kind not in ("bknn", "topk"):
        raise ValueError("kind must be 'bknn' or 'topk'")
    base_id = client.client_id or "loadgen"
    if clients == 1:
        identities = [client]
    else:
        identities = [
            ServeClient(
                client.base_url,
                timeout=client.timeout,
                client_id=f"{base_id}-{i}",
            )
            for i in range(clients)
        ]
    recorder = LatencyRecorder()
    outcomes = {"ok": 0, "shed": 0, "limited": 0, "errors": 0, "cache_hits": 0}

    def payload(query: Query) -> dict:
        return {
            "vertex": query.vertex,
            "k": k,
            "keywords": list(query.keywords),
            "kind": kind,
        }

    def refusal_status(error: urllib.error.HTTPError) -> str:
        if error.code == 429:
            return "limited"
        if error.code == 503:
            return "shed"
        return "errors"

    def fire(task: tuple[int, Query]) -> tuple[dict[str, int], float]:
        index, query = task
        sender = identities[index % len(identities)]
        counts = {"ok": 0, "shed": 0, "limited": 0, "errors": 0, "cache_hits": 0}
        start = time.perf_counter()
        try:
            body = sender.query(payload(query))
            counts["ok"] = 1
            counts["cache_hits"] = 1 if body.get("cached") else 0
        except urllib.error.HTTPError as error:
            counts[refusal_status(error)] = 1
        except Exception:
            counts["errors"] = 1
        return counts, time.perf_counter() - start

    def fire_batch(task: tuple[int, list[Query]]) -> tuple[dict[str, int], float]:
        """One ``/v1/batch`` request; counts are per carried query.

        Per-item failures (``ok: false`` entries) count as errors while
        the rest of the batch still counts as ok — mirroring the
        server's isolation contract.  A whole-request refusal (429/503)
        charges every carried query, matching the limiter's accounting.
        """
        index, chunk = task
        sender = identities[index % len(identities)]
        payloads = [payload(query) for query in chunk]
        counts = {"ok": 0, "shed": 0, "limited": 0, "errors": 0, "cache_hits": 0}
        start = time.perf_counter()
        try:
            body = sender.batch(payloads)
            items = body.get("items", [])
            for item in items:
                if item.get("ok"):
                    counts["ok"] += 1
                    if (item.get("result") or {}).get("cached"):
                        counts["cache_hits"] += 1
                else:
                    counts["errors"] += 1
        except urllib.error.HTTPError as error:
            counts[refusal_status(error)] = len(chunk)
        except Exception:
            counts["errors"] = len(chunk)
        return counts, time.perf_counter() - start

    if batch == 1:
        worker = fire
        tasks: list = list(enumerate(queries))
    else:
        worker = fire_batch
        chunks = [queries[i : i + batch] for i in range(0, len(queries), batch)]
        tasks = list(enumerate(chunks))

    start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=concurrency) as pool:
        for counts, seconds in pool.map(worker, tasks):
            for key, value in counts.items():
                outcomes[key] += value
            if counts["ok"]:
                recorder.record(seconds)
    elapsed = time.perf_counter() - start
    return LoadResult(
        concurrency=concurrency,
        requests=len(queries),
        ok=outcomes["ok"],
        shed=outcomes["shed"],
        errors=outcomes["errors"],
        elapsed_seconds=elapsed,
        qps=outcomes["ok"] / elapsed if elapsed > 0 else 0.0,
        mean_ms=recorder.mean() * 1000.0,
        p50_ms=recorder.percentile(50) * 1000.0,
        p95_ms=recorder.percentile(95) * 1000.0,
        p99_ms=recorder.percentile(99) * 1000.0,
        cache_hits=outcomes["cache_hits"],
        limited=outcomes["limited"],
        details={"batch": batch, "http_requests": len(tasks)},
    )


def main(argv: list[str] | None = None) -> int:
    """Fire a Zipf workload at a running server from the command line.

    ``--clients N`` emits N distinct ``X-Client-Id`` identities so the
    server's per-client rate limiter (``repro serve --rate-limit``) is
    exercisable under the standard workload.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Replay a Zipf-skewed workload against a repro server.",
    )
    parser.add_argument("--url", required=True,
                        help="server base URL, e.g. http://127.0.0.1:8080")
    parser.add_argument("--dataset", default="ME-S",
                        help="ladder dataset the workload is drawn from "
                             "(must match the served index; default ME-S)")
    parser.add_argument("--requests", type=int, default=200,
                        help="total requests to fire (default 200)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="client threads (default 4)")
    parser.add_argument("--clients", type=int, default=1,
                        help="distinct client identities spread over the "
                             "requests (default 1)")
    parser.add_argument("--batch", type=int, default=1,
                        help="queries per /v1/batch request; 1 sends one "
                             "/v1/query per query (default 1)")
    parser.add_argument("--kind", default="bknn", choices=["bknn", "topk"])
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--terms", type=int, default=2,
                        help="keywords per query (default 2)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.datasets import load_dataset
    from repro.datasets.workloads import WorkloadGenerator

    dataset = load_dataset(args.dataset)
    generator = WorkloadGenerator(dataset.graph, dataset.keywords, seed=args.seed)
    queries = generator.zipf_queries(args.terms, args.requests)
    client = ServeClient(args.url)
    result = replay(
        client,
        queries,
        concurrency=args.concurrency,
        k=args.k,
        kind=args.kind,
        clients=args.clients,
        batch=args.batch,
    )
    print(json.dumps(result.as_dict(), indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
