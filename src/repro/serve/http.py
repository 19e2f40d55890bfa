"""Stdlib HTTP/JSON front end for the serving tier.

No new dependencies: :class:`http.server.ThreadingHTTPServer` accepts
connections (one handler thread per connection) and every query is
executed through the bounded :class:`~repro.serve.admission.WorkerPool`,
so concurrency is governed by admission control rather than by however
many sockets happen to be open.

The server is **backend-agnostic**: anything implementing the
``execute(Query) -> QueryResult`` / ``apply(UpdateOp) -> dict`` /
``health()`` / ``metrics_snapshot()`` / ``events_snapshot()`` /
``profile(action, hz)`` protocol serves — the thread-based
:class:`~repro.serve.engine.Engine` and the process-sharded
:class:`~repro.serve.cluster.ClusterCoordinator` both qualify.

Envelope
--------
Every response (success and error, every endpoint) is one JSON shape::

    {"ok": true,  "result": ...}
    {"ok": false, "error": {"code": "...", "message": "...", ...}}

Machine-readable error codes: ``bad_request`` (400), ``not_found``
(404), ``payload_too_large`` (413), ``rate_limited`` (429, carries
``"retry_after"`` seconds and a ``Retry-After`` header), ``saturated``
(503, carries ``"retry": true``), ``deadline_exceeded`` (504),
``internal`` (500).

Endpoints (all under ``/v1/``; any other path answers ``not_found``):

``GET/POST /v1/query``
    A :class:`repro.api.Query` as a JSON body or query string
    (``vertex``, ``keywords``, ``k``, ``kind``, ``mode``); ``keywords``
    may be a JSON list or comma-separated, ``kind`` defaults to
    ``bknn``, and ``conjunctive`` is honoured when ``mode`` is absent.
``POST /v1/batch``
    Many queries in one request: ``{"queries": [query-object, ...]}``.
    Answers per item (``{"items": [{"ok": ..., "result"|"error": ...}]}``,
    order-aligned); one bad query yields a per-item error object, never
    a whole-batch 400.  Rate limiting charges the batch its *size*.
``POST /v1/update``
    A :class:`repro.api.UpdateOp` as JSON (paper §6.2 operations).
``GET /v1/healthz``
    Liveness and index summary (cluster backends add worker status).
``GET /v1/metrics``
    Request counts, p50/p95/p99 latency, cache hit rate, queue depth,
    aggregated §5.1 ``QueryStats`` counters (cluster backends add a
    per-worker breakdown).
``GET /v1/debug/traces`` / ``/v1/debug/events`` / ``/v1/debug/profile``
    Observability surfaces: recent/slow trace trees; the cluster-merged
    flight-recorder event stream (``since_ts`` cursor for follow mode);
    sampling-profiler control (``action=start|stop|status|reset``,
    ``hz=...``, ``format=collapsed`` for flame-graph text).
``GET /v1/healthz?verbose=1``
    Readiness breakdown: admission queue, profiler/recorder/tracer
    status.

Overload produces explicit errors instead of unbounded queueing:
**429** when one client exceeds its leaky-bucket budget (the rest of
the fleet is unaffected), **413** for a batch larger than the whole
burst (it could never fit, so retrying is pointless), **503** when the admission queue is full,
**504** when a request misses its deadline.  Clients identify
themselves with an ``X-Client-Id`` header; anonymous requests are
bucketed by source address.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import TYPE_CHECKING
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.api import Query, QueryResult, UnsupportedQueryError, UpdateOp
from repro.obs.events import EVENTS
from repro.obs.profile import PROFILER, render_collapsed
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import TRACER, attach
from repro.serve.admission import DeadlineExceeded, ServerSaturated, WorkerPool
from repro.serve.ipc import WorkerError
from repro.serve.ratelimit import ClientRateLimiter

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.serve.cluster import ClusterCoordinator
    from repro.serve.engine import Engine
from repro.serve.metrics import ServerMetrics


class BadRequest(ValueError):
    """Client-side parameter error, reported as HTTP 400."""


#: Largest request body a route reads.  A request declaring more is
#: answered 413 before any byte of the body is read.
_MAX_BODY_BYTES = 1 << 20

#: Endpoints subject to per-client rate limits.  Health and metrics
#: stay reachable even for a limited client — operators debugging an
#: overload must never be locked out by the very limiter they tune.
#: ``/batch`` is charged its *batch size* (one token per carried
#: query), so batching cannot bypass a per-query budget.
_RATE_LIMITED = ("/query", "/batch", "/update")


class _Handler(BaseHTTPRequestHandler):
    """One request; the server instance carries the backend and pool."""

    server: "QueryServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_ok(self, result: object) -> None:
        self._send_json(200, {"ok": True, "result": result})

    def _send_text(self, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(
        self,
        status: int,
        code: str,
        message: str,
        headers: dict[str, str] | None = None,
        **extra,
    ) -> None:
        self._send_json(
            status,
            {"ok": False, "error": {"code": code, "message": message, **extra}},
            headers=headers,
        )

    def _params(self) -> dict:
        parsed = urlparse(self.path)
        params = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
            except json.JSONDecodeError:
                raise BadRequest("request body is not valid JSON")
            if not isinstance(body, dict):
                raise BadRequest("request body must be a JSON object")
            params.update(body)
        return params

    def _refuse(
        self, label: str, start: float, status: int, code: str, message: str
    ) -> None:
        """Answer a request no handler will read: count it, reply, hang up.

        Whatever body was sent stays unread, so the bytes after the
        headers cannot be skipped and the connection ends with the reply.
        """
        self.close_connection = True
        self.server.metrics.record_request(
            label, time.perf_counter() - start, error=True
        )
        try:
            self._send_error(
                status, code, message, headers={"Connection": "close"}
            )
        except BrokenPipeError:
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        self._route()

    def do_POST(self) -> None:  # noqa: N802
        self._route()

    def _route(self) -> None:
        path = urlparse(self.path).path.rstrip("/") or "/"
        start = time.perf_counter()
        metrics = self.server.metrics
        limiter = self.server.rate_limiter
        # Only /v1/ is routed; any other path keeps its full name as the
        # metrics label and is refused below.
        versioned = path.startswith("/v1/")
        endpoint = path[len("/v1"):] if versioned else path
        declared = self.headers.get("Content-Length") or "0"
        length = int(declared) if declared.isascii() and declared.isdigit() else -1
        if length < 0:
            self._refuse(
                endpoint, start, 400, "bad_request",
                f"Content-Length must be a non-negative integer, got {declared!r}",
            )
            return
        if length > _MAX_BODY_BYTES:
            self._refuse(
                endpoint, start, 413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit",
            )
            return
        if not versioned:
            self._refuse(
                endpoint, start, 404, "not_found", f"unknown endpoint {path}"
            )
            return
        text: str | None = None
        text_type = PROMETHEUS_CONTENT_TYPE
        try:
            # A batch is charged one token per carried query, which
            # means its body must be read *before* the limiter check
            # (the body can only be read once; the parsed params are
            # handed down to the handler).  A malformed envelope is a
            # plain 400 — per-item isolation only applies to well-formed
            # batches.
            batch_params: dict | None = None
            cost = 1.0
            if endpoint == "/batch":  # ksp: ignore[KSP011] traced below
                batch_params = self._params()
                raw_queries = batch_params.get("queries")
                if isinstance(raw_queries, list) and raw_queries:
                    cost = float(len(raw_queries))
            if limiter is not None and endpoint in _RATE_LIMITED:
                client = self.headers.get("X-Client-Id") or self.client_address[0]
                if cost > limiter.capacity:
                    # No wait ever makes this charge fit: refuse it
                    # outright instead of sending a Retry-After loop.
                    metrics.record_request(
                        endpoint, time.perf_counter() - start, error=True
                    )
                    self._send_error(
                        413,
                        "payload_too_large",
                        f"batch of {int(cost)} queries exceeds the "
                        f"rate-limit burst of {limiter.capacity:g}; split it",
                        retry=False,
                    )
                    return
                retry_after = limiter.check(client, cost=cost)
                if retry_after is not None:
                    if batch_params is None:
                        # The connection stays open after a 429: skip the
                        # unread body (capped above) or it would be
                        # parsed as the next request line.
                        self.rfile.read(length)
                    metrics.record_rate_limited(time.perf_counter() - start)
                    EVENTS.emit(
                        "query.rate_limited", endpoint=endpoint, client=client
                    )
                    self._send_error(
                        429,
                        "rate_limited",
                        f"client {client!r} exceeded its request rate",
                        headers={
                            "Retry-After": str(max(1, math.ceil(retry_after)))
                        },
                        retry=True,
                        retry_after=round(retry_after, 3),
                    )
                    return
            # Handlers *return* the response payload; metrics are
            # recorded before any bytes go out, so a client that has
            # received the response immediately observes the request in
            # /metrics.
            if endpoint == "/healthz":  # ksp: ignore[KSP011] observability drain
                reply = self._handle_healthz()
            elif endpoint == "/metrics":  # ksp: ignore[KSP011] observability drain
                reply, text = self._handle_metrics()
            elif endpoint == "/debug/traces":  # ksp: ignore[KSP011] observability drain
                reply = {
                    "tracing": TRACER.snapshot(),
                    "recent": TRACER.recent_traces(),
                    "slow": TRACER.slow_traces(),
                }
            elif endpoint == "/debug/events":  # ksp: ignore[KSP011] observability drain
                reply = self._handle_events()
            elif endpoint == "/debug/profile":  # ksp: ignore[KSP011] backend emits
                reply, text = self._handle_profile()
                if text is not None:
                    text_type = "text/plain; charset=utf-8"
            elif endpoint == "/query":
                reply = self._handle_query()
            elif endpoint == "/batch":
                reply = self._handle_batch(batch_params or {})
            elif endpoint == "/update":
                reply = self._handle_update()
            else:
                self._refuse(
                    endpoint, start, 404, "not_found", f"unknown endpoint {path}"
                )
                return
        except (BadRequest, UnsupportedQueryError) as error:
            metrics.record_request(
                endpoint, time.perf_counter() - start, error=True
            )
            self._send_error(400, "bad_request", str(error))
            return
        except WorkerError as error:
            # A cluster worker answered with a classified error: keep
            # its code, map bad_request to 400 and anything else to 500.
            status = 400 if error.code == "bad_request" else 500
            metrics.record_request(
                endpoint, time.perf_counter() - start, error=True
            )
            self._send_error(status, error.code, str(error))
            return
        except ServerSaturated as error:
            metrics.record_shed(time.perf_counter() - start)
            EVENTS.emit(
                "query.shed",
                endpoint=endpoint,
                queue_depth=self.server.pool.queue_depth,
            )
            self._send_error(503, "saturated", str(error), retry=True)
            return
        except DeadlineExceeded as error:
            metrics.record_timeout(time.perf_counter() - start)
            EVENTS.emit("query.deadline", endpoint=endpoint)
            self._send_error(504, "deadline_exceeded", str(error))
            return
        except BrokenPipeError:  # client went away mid-request
            return
        except Exception as error:  # pragma: no cover - defensive
            metrics.record_request(
                endpoint, time.perf_counter() - start, error=True
            )
            self._send_error(500, "internal", f"{type(error).__name__}: {error}")
            return
        metrics.record_request(endpoint, time.perf_counter() - start)
        try:
            if text is not None:
                self._send_text(text, text_type)
            else:
                self._send_ok(reply)
        except BrokenPipeError:  # client went away mid-response
            return

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _handle_metrics(self) -> tuple[dict | None, str | None]:
        """Return ``(json_payload, None)`` or ``(None, prometheus_text)``."""
        params = parse_qs(urlparse(self.path).query)
        fmt = (params.get("format") or ["json"])[-1]
        snapshot = self.server.metrics_snapshot()
        if fmt == "prometheus":
            return None, render_prometheus(snapshot)
        if fmt == "json":
            return snapshot, None
        raise BadRequest(f"unknown metrics format {fmt!r}")

    def _handle_healthz(self) -> dict:
        """``GET /v1/healthz``; ``?verbose=1`` adds the obs breakdown.

        The verbose form is the operator's one-stop readiness view:
        admission-queue occupancy and the profiler/recorder/tracer
        status lines.
        """
        reply = self.server.backend.health()
        params = parse_qs(urlparse(self.path).query)
        verbose = (params.get("verbose") or ["0"])[-1]
        if verbose not in ("", "0", "false"):
            reply["admission"] = {
                "queue_depth": self.server.pool.queue_depth,
                "workers": self.server.pool.workers,
                "max_queue": self.server.pool.max_queue,
            }
            reply["events"] = EVENTS.snapshot()
            reply["profiler"] = PROFILER.snapshot()
            reply["tracing"] = TRACER.snapshot()
        return reply

    def _handle_events(self) -> dict:
        """``GET /v1/debug/events``: the merged flight-recorder stream.

        ``since_ts`` (exclusive) is the follow-mode cursor — wall-clock
        based, so it works across the merged per-worker streams;
        ``limit`` keeps only the newest N events.
        """
        params = parse_qs(urlparse(self.path).query)
        since_raw = (params.get("since_ts") or [None])[-1]
        limit_raw = (params.get("limit") or [None])[-1]
        try:
            since_ts = float(since_raw) if since_raw is not None else None
            limit = int(limit_raw) if limit_raw is not None else None
        except ValueError:
            raise BadRequest("since_ts must be a float, limit an int") from None
        return self.server.events_payload(since_ts=since_ts, limit=limit)

    def _handle_profile(self) -> tuple[dict | None, str | None]:
        """``/v1/debug/profile``: drive the sampling profiler.

        ``action`` is ``status`` (default), ``start`` (optional
        ``hz``), ``stop``, or ``reset``; cluster backends scatter the
        action to every worker process and merge the folded stacks.
        ``format=collapsed`` returns the flame-graph text body instead
        of JSON (pipe it straight into ``flamegraph.pl``).
        """
        params = self._params()
        action = str(params.get("action") or "status")
        if action not in ("status", "start", "stop", "reset"):
            raise BadRequest(f"unknown profile action {action!r}")
        hz = params.get("hz")
        try:
            hz_value = float(hz) if hz is not None else None
            if hz_value is not None and hz_value <= 0:
                raise ValueError
        except (TypeError, ValueError):
            raise BadRequest("hz must be a positive number") from None
        payload = self.server.backend.profile(action, hz=hz_value)
        fmt = str(params.get("format") or "json")
        if fmt == "collapsed":
            return None, render_collapsed(payload.get("folded") or {})
        if fmt != "json":
            raise BadRequest(f"unknown profile format {fmt!r}")
        return payload, None

    def _handle_query(self) -> dict:
        params = self._params()
        try:
            query = Query.from_dict(params)
        except KeyError as error:
            raise BadRequest(f"missing query parameter: {error}") from None
        except (TypeError, ValueError) as error:
            raise BadRequest(str(error)) from None
        backend = self.server.backend
        # Trace root: minted here at ingress, carried into the admission
        # pool's worker thread via attach(), and (for cluster backends)
        # over the IPC pipe — so the whole request is one span tree.
        with TRACER.trace(
            "http.query",
            kind=query.kind,
            k=query.k,
            keywords=len(query.keywords),
        ) as root:
            submitted = time.perf_counter()

            def call() -> QueryResult:
                waited = time.perf_counter() - submitted
                with attach(root):
                    root.add_time("admission.wait", waited)
                    return backend.execute(query)

            try:
                answer = self.server.pool.run(
                    call, deadline=self.server.deadline
                )
            except UnsupportedQueryError:
                raise
            except ValueError as error:  # bad k / keywords from the core
                raise BadRequest(str(error)) from None
            root.annotate(cached=answer.cached)
        return answer.to_dict()

    def _handle_batch(self, params: dict) -> dict:
        """``POST /v1/batch``: many queries, one request, per-item errors.

        The envelope is ``{"queries": [query-object, ...]}`` and the
        reply mirrors :meth:`repro.api.BatchResult.to_dict`:
        ``{"items": [{"ok": true, "result": ...} | {"ok": false,
        "error": {...}}, ...]}`` order-aligned with the request.  One
        bad query yields a per-item ``error`` object — never a
        whole-batch 400; only a malformed envelope (no ``queries``
        list) fails the request as a whole.
        """
        from repro.api import QueryBatch, batch_error_object, execute_batch

        if self.command != "POST":
            raise BadRequest("/batch requires POST")
        raw_queries = params.get("queries")
        if not isinstance(raw_queries, list) or not raw_queries:
            raise BadRequest("batch payload needs a non-empty 'queries' list")
        results: list[QueryResult | None] = [None] * len(raw_queries)
        errors: list[dict | None] = [None] * len(raw_queries)
        valid: list[tuple[int, Query]] = []
        for i, item in enumerate(raw_queries):
            try:
                if not isinstance(item, dict):
                    raise BadRequest("each batch entry must be a JSON object")
                valid.append((i, Query.from_dict(item)))
            except Exception as exc:  # noqa: PERF203 - per-item isolation
                errors[i] = batch_error_object(exc)
        backend = self.server.backend
        self.server.metrics.record_batch(len(raw_queries))
        # One root span for the whole batch; the backend's batched path
        # contributes the per-query child spans (engine.execute per
        # miss, cluster.dispatch per worker share).
        with TRACER.trace("http.batch", batch=len(raw_queries)) as root:
            submitted = time.perf_counter()
            if valid:
                batch = QueryBatch(tuple(query for _, query in valid))

                def call() -> "object":
                    waited = time.perf_counter() - submitted
                    with attach(root):
                        root.add_time("admission.wait", waited)
                        return execute_batch(backend, batch)

                answer = self.server.pool.run(call, deadline=self.server.deadline)
                for (i, _), result, error in zip(
                    valid, answer.results, answer.errors
                ):
                    results[i] = result
                    errors[i] = error
            ok_count = sum(1 for result in results if result is not None)
            root.annotate(ok=ok_count, failed=len(raw_queries) - ok_count)
        items = []
        for result, error in zip(results, errors):
            if result is not None:
                items.append({"ok": True, "result": result.to_dict()})
            else:
                items.append({"ok": False, "error": error or {}})
        return {
            "items": items,
            "count": len(items),
            "ok_count": ok_count,
        }

    def _handle_update(self) -> dict:
        if self.command != "POST":
            raise BadRequest("/update requires POST")
        params = self._params()
        try:
            op = UpdateOp.from_dict(params)
        except (KeyError, TypeError, ValueError) as error:
            raise BadRequest(f"bad update request: {error}") from None
        try:
            with TRACER.trace("http.update", op=op.op):
                return self.server.backend.apply(op)
        except (KeyError, TypeError, ValueError) as error:
            raise BadRequest(f"bad update request: {error}") from None


class QueryServer(ThreadingHTTPServer):
    """A long-running K-SPIN query service.

    Parameters
    ----------
    backend:
        Any ``execute``/``apply``/``health``/``metrics_snapshot``/
        ``events_snapshot``/``profile`` implementation: a thread-safe :class:`Engine` or a
        :class:`~repro.serve.cluster.ClusterCoordinator`.
    host, port:
        Bind address; port 0 picks an ephemeral port (see :attr:`port`).
    workers:
        Query worker threads (admission-controlled, independent of
        connection handler threads).  With a cluster backend these only
        shepherd requests over worker pipes — the query CPU burns in
        the worker processes.
    max_queue:
        Admitted requests allowed to wait; excess is shed with 503.
    deadline:
        Per-request deadline in seconds (504 when missed).
    trace:
        Enable end-to-end tracing (root spans at ingress, span buffers
        at ``/v1/debug/traces``).  Off by default: untraced requests pay
        only one ContextVar read per instrumentation point.
    trace_buffer:
        Ring-buffer capacity for recent traces.
    slow_query_threshold:
        Seconds; traced requests at least this slow also land in the
        slow-query log (None disables the log).
    rate_limit:
        Per-client steady-state requests/second enforced with a leaky
        bucket (None disables rate limiting).  Clients are keyed by the
        ``X-Client-Id`` header, falling back to the source address.
    rate_burst:
        Burst allowance per client (bucket capacity); defaults to
        ``2 * rate_limit``.  Both are validated by
        :class:`~repro.serve.ratelimit.ClientRateLimiter`.
    """

    daemon_threads = True

    def __init__(
        self,
        backend: Engine | ClusterCoordinator,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        max_queue: int = 64,
        deadline: float | None = 30.0,
        verbose: bool = False,
        trace: bool = False,
        trace_buffer: int = 64,
        slow_query_threshold: float | None = None,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
    ) -> None:
        # Built before the socket binds, so a bad limit leaks no socket.
        self.rate_limiter: ClientRateLimiter | None = None
        if rate_limit is not None:
            self.rate_limiter = ClientRateLimiter(
                rate=rate_limit,
                capacity=rate_burst if rate_burst is not None
                else max(1.0, 2.0 * rate_limit),
            )
        super().__init__((host, port), _Handler)
        self.backend = backend
        self.metrics = ServerMetrics()
        self.pool = WorkerPool(
            workers=workers, max_queue=max_queue, default_deadline=deadline
        )
        self.deadline = deadline
        self.verbose = verbose
        self._thread: threading.Thread | None = None
        TRACER.configure(
            enabled=trace,
            buffer_size=trace_buffer,
            slow_threshold=slow_query_threshold,
        )
        # Every finished trace feeds the per-stage latency histograms,
        # so /metrics answers "where do queries spend time?" whenever
        # tracing is on.
        self._trace_sink = self.metrics.record_trace
        TRACER.add_sink(self._trace_sink)

    @property
    def port(self) -> int:
        """The actual bound port (useful with ``port=0``)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def events_payload(
        self, since_ts: float | None = None, limit: int | None = None
    ) -> dict:
        """The ``/v1/debug/events`` body: one causally-ordered stream.

        Cluster backends merge every worker's flight-recorder stream
        with the coordinator's own (the ``events_snapshot`` protocol
        method); in-process backends share this process's recorder, so
        the global :data:`EVENTS` already holds everything.
        """
        events = self.backend.events_snapshot()
        if since_ts is not None:
            events = [event for event in events if event["ts"] > since_ts]
        total = len(events)
        if limit is not None and limit >= 0:
            events = events[-limit:] if limit else []
        return {
            "events": events,
            "count": len(events),
            "total": total,
            "recorder": EVENTS.snapshot(),
        }

    def metrics_snapshot(self) -> dict:
        """Everything ``/metrics`` reports, as one JSON-ready dict.

        Backend counters (query cost totals, cache statistics, cluster
        breakdowns) merged with the HTTP tier's own request/latency/
        shedding accounting and admission-queue saturation signals.
        """
        snapshot = self.backend.metrics_snapshot()
        http = self.metrics.snapshot()
        for key in (
            "requests", "requests_total", "errors", "shed", "timeouts",
            "rate_limited", "latency", "error_latency", "endpoints",
            "batch_size",
        ):
            snapshot[key] = http[key]
        if self.rate_limiter is not None:
            snapshot["rate_limiter"] = self.rate_limiter.snapshot()
        # Per-stage histograms live where the trace sink runs (this
        # tier); backend stage blocks (if any) are kept unless the HTTP
        # tier saw the same stage.
        stages = dict(snapshot.get("stages") or {})
        stages.update(http["stages"])
        snapshot["stages"] = stages
        snapshot["tracing"] = TRACER.snapshot()
        snapshot["queue_depth"] = self.pool.queue_depth
        snapshot["workers"] = self.pool.workers
        snapshot["max_queue"] = self.pool.max_queue
        snapshot["events"] = EVENTS.snapshot()
        snapshot["profiler"] = PROFILER.snapshot()
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_background(self) -> "QueryServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the pool and socket."""
        TRACER.remove_sink(self._trace_sink)
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.pool.close(wait=False)
        self.server_close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
