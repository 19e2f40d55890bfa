"""Worker-process plumbing for the serving cluster.

One cluster worker is one OS process running :func:`worker_main` over a
:class:`multiprocessing.connection.Connection` pipe.  The design leans
on two properties of the deployment:

* **Workers are forked after the index is built.**  Under the ``fork``
  start method the child inherits the parent's built ``KSpin`` through
  copy-on-write pages — no serialisation, near-zero startup.  Under
  ``spawn`` (or after a worker death when the parent prefers a clean
  slate) the child instead *rehydrates*: it loads the persisted index
  snapshot and replays the update journal it is handed.
* **The pipe is a strict request/reply channel.**  The parent-side
  :class:`WorkerHandle` serialises access with a mutex so one request's
  reply can never be consumed by another thread's ``recv`` — the
  scatter-gather coordinator achieves parallelism *across* workers,
  never across requests on one worker's pipe.

Failure mapping: a dead worker surfaces as :class:`WorkerDied`
(``EOFError``/``OSError`` on the pipe); a worker-side exception travels
back as an ``("err", (code, message))`` reply and is re-raised as
:class:`WorkerError` carrying the machine-readable code used by the
HTTP envelope.
"""

from __future__ import annotations

import traceback
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Sequence

from repro.analysis.lockdebug import make_lock
from repro.api import Query, QueryResult, UnsupportedQueryError, UpdateOp
from repro.core.framework import KSpin
from repro.obs.events import EVENTS
from repro.obs.profile import PROFILER
from repro.obs.trace import TRACER


class WorkerDied(RuntimeError):
    """The worker process is gone (pipe closed or process not alive)."""


class WorkerError(RuntimeError):
    """The worker answered with an error reply.

    ``code`` is a machine-readable error code compatible with the HTTP
    envelope (e.g. ``"bad_request"``, ``"internal"``).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class WorkerHandle:
    """Parent-side endpoint for one worker process.

    Wraps the parent end of the pipe plus the process object, and owns
    the request/reply discipline: :meth:`request` is the *only* way
    bytes cross the pipe, and it holds a mutex across the paired
    ``send``/``recv`` so concurrent scatter threads never interleave.
    """

    def __init__(self, name: str, process: BaseProcess, conn: Connection) -> None:
        self.name = name
        self.process = process
        self.conn = conn
        self._lock = make_lock(f"ipc.{name}")
        self.requests = 0
        self.inflight = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    # Request/reply
    # ------------------------------------------------------------------
    def request(self, kind: str, payload: object, timeout: float | None = None) -> object:
        """Send ``(kind, payload)`` and wait for the worker's reply.

        ``timeout`` only makes sense for idempotent probes (pings): an
        abandoned reply would desynchronise the pipe for the next
        caller, so on timeout the worker is declared dead rather than
        retried.
        """
        with self._lock:
            self.inflight += 1
            try:
                try:
                    self.conn.send((kind, payload))
                    # The blocking waits below hold this handle's mutex
                    # by design: the mutex *is* the request/reply pipe
                    # discipline (one outstanding request per worker);
                    # scatter parallelism lives across workers instead.
                    if timeout is not None and not self.conn.poll(timeout):  # ksp: ignore[KSP003]
                        raise WorkerDied(
                            f"worker {self.name} unresponsive after {timeout}s"
                        )
                    status, body = self.conn.recv()  # ksp: ignore[KSP003]
                except (EOFError, OSError, BrokenPipeError) as exc:
                    raise WorkerDied(f"worker {self.name} is gone: {exc}") from exc
                self.requests += 1
            finally:
                self.inflight -= 1
        if status == "err":
            code, message = body
            raise WorkerError(code, message)
        return body

    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def ping(self, timeout: float = 1.0) -> bool:
        """Liveness probe; False (never an exception) on any failure."""
        try:
            return self.request("ping", None, timeout=timeout) == "pong"
        except (WorkerDied, WorkerError):
            return False

    def close(self) -> None:
        """Ask the worker to exit, then reap it (escalating to kill)."""
        try:
            with self._lock:
                self.conn.send(("stop", None))
        except (EOFError, OSError, BrokenPipeError):
            pass
        if self.process is not None:
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=2.0)
                if self.process.is_alive():  # pragma: no cover - last resort
                    self.process.kill()
                    self.process.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


def worker_main(
    conn: Connection,
    name: str,
    kspin: KSpin | None = None,
    cache_size: int = 0,
    snapshot_path: str | None = None,
    journal: Sequence[dict] = (),
) -> None:
    """The worker process's request loop (runs until ``stop`` or EOF).

    Exactly one of ``kspin`` (fork start method: the object rode along
    via copy-on-write) or ``snapshot_path`` (spawn/rehydrate: load the
    persisted index, then replay ``journal`` — the updates applied
    since the snapshot) must be provided.

    Protocol (all messages are ``(kind, payload)`` tuples, replies are
    ``("ok", body)`` or ``("err", (code, message))``):

    ===========  ======================  ==============================
    kind         payload                 ok body
    ===========  ======================  ==============================
    query        ``Query.to_dict()``     ``QueryResult.to_dict()``
    query_batch  ``{"queries": [...]}``  ``{"results": [...]}``
    update       ``UpdateOp.to_dict()``  engine ``apply`` summary dict
    ping         ``None``                ``"pong"``
    metrics      ``None``                ``engine.metrics_snapshot()``
    health       ``None``                ``engine.health()``
    events       ``{"since_seq": int}``  ``{"events": [...], "recorder": ...}``
    profile      ``{"action", "hz"}``    profiler snapshot + folded stacks
    stop         ``None``                ``"bye"`` (then exit)
    ===========  ======================  ==============================

    ``events`` drains this worker's flight-recorder stream (each worker
    re-labels the process-global recorder with its own name right after
    fork/rehydrate, so sequence numbers are per-worker monotonic);
    ``profile`` is the cluster profiler scatter — start/stop/status the
    worker's sampling profiler and return its folded stacks for the
    coordinator to merge.

    ``query_batch`` is the batched hot path: the payload carries every
    sub-query assigned to this worker for one client batch, the worker
    answers them through :meth:`Engine.execute_many` (one cache sweep,
    one read-lock acquisition), and the reply's ``results`` list is
    order-aligned with the request.  One pipe round-trip amortises
    pickling and scheduling over the whole share.
    """
    from repro.serve.engine import Engine  # deferred: keep spawn imports light

    if kspin is None:
        if snapshot_path is None:
            raise ValueError("worker needs a kspin or a snapshot_path")
        from repro.persist import load_kspin

        kspin = load_kspin(snapshot_path)
        for entry in journal:
            kspin.apply(UpdateOp.from_dict(entry))
    # The child owns fresh copies of the process-global observability
    # singletons (fork duplicated them; spawn re-imported them): label
    # them with the worker's name so merged streams attribute correctly,
    # and record how this worker came to life — the flight-recorder
    # line that lets a post-mortem distinguish a COW fork from a
    # snapshot rehydrate.
    EVENTS.configure(source=name)
    EVENTS.reset()  # inherited buffer is the parent's history, not ours
    PROFILER.reset()
    PROFILER.source = name
    EVENTS.emit(
        "worker.start",
        mode="fork" if kspin is not None and snapshot_path is None else "rehydrate",
        journal=len(journal),
    )
    engine = Engine(kspin, cache_size=cache_size)

    while True:
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):  # parent went away: nothing left to serve
            break
        try:
            if kind == "query":
                # A traced request carries its trace ID alongside the
                # query fields; the worker answers with its own span
                # tree so the coordinator can graft HTTP -> dispatch ->
                # worker -> oracle into one tree.
                trace_id = None
                if isinstance(payload, dict):
                    trace_id = payload.pop("trace_id", None)
                if trace_id:
                    with TRACER.trace(
                        "worker.query", trace_id=trace_id, force=True
                    ) as root:
                        root.worker = name
                        result = engine.execute(Query.from_dict(payload))
                else:
                    root = None
                    result = engine.execute(Query.from_dict(payload))
                body = QueryResult(
                    hits=result.hits,
                    stats=result.stats,
                    cached=result.cached,
                    worker=name,
                ).to_dict()
                if root is not None:
                    body["trace"] = root.to_dict()
                reply = ("ok", body)
            elif kind == "query_batch":
                trace_id = None
                if isinstance(payload, dict):
                    trace_id = payload.get("trace_id")
                    raw_queries = payload.get("queries", [])
                else:
                    raw_queries = []
                queries = [Query.from_dict(item) for item in raw_queries]
                if trace_id:
                    with TRACER.trace(
                        "worker.query", trace_id=trace_id, force=True
                    ) as root:
                        root.worker = name
                        root.annotate(batch=len(queries))
                        answers = engine.execute_many(queries)
                else:
                    root = None
                    answers = engine.execute_many(queries)
                body = {
                    "results": [
                        QueryResult(
                            hits=answer.hits,
                            stats=answer.stats,
                            cached=answer.cached,
                            worker=name,
                        ).to_dict()
                        for answer in answers
                    ]
                }
                if root is not None:
                    body["trace"] = root.to_dict()
                reply = ("ok", body)
            elif kind == "update":
                reply = ("ok", engine.apply(UpdateOp.from_dict(payload)))
            elif kind == "ping":  # ksp: ignore[KSP011] liveness probe
                reply = ("ok", "pong")
            elif kind == "metrics":  # ksp: ignore[KSP011] observability drain
                reply = ("ok", engine.metrics_snapshot())
            elif kind == "health":  # ksp: ignore[KSP011] liveness probe
                reply = ("ok", {**engine.health(), "worker": name})
            elif kind == "events":  # ksp: ignore[KSP011] observability drain
                since_seq = 0
                if isinstance(payload, dict):
                    since_seq = int(payload.get("since_seq", 0))
                reply = ("ok", {
                    "events": EVENTS.events(since_seq=since_seq),
                    "recorder": EVENTS.snapshot(),
                })
            elif kind == "profile":  # ksp: ignore[KSP011] PROFILER emits
                action = "status"
                hz = None
                if isinstance(payload, dict):
                    action = str(payload.get("action", "status"))
                    hz = payload.get("hz")
                if action == "start":
                    PROFILER.start(hz=hz)
                elif action == "stop":
                    PROFILER.stop()
                elif action == "reset":
                    PROFILER.reset()
                reply = ("ok", {
                    "snapshot": PROFILER.snapshot(),
                    "folded": PROFILER.folded(),
                })
            elif kind == "stop":
                # The shutdown counterpart of worker.start: a merged
                # event stream distinguishes an orderly stop from a
                # death the supervisor had to clean up after.
                EVENTS.emit("worker.stop", worker=name)
                conn.send(("ok", "bye"))
                break
            else:
                reply = ("err", ("bad_request", f"unknown message kind {kind!r}"))
        except UnsupportedQueryError as exc:
            reply = ("err", ("bad_request", str(exc)))
        except (KeyError, ValueError) as exc:
            reply = ("err", ("bad_request", str(exc)))
        except Exception:  # noqa: BLE001 - report, keep serving
            reply = ("err", ("internal", traceback.format_exc(limit=8)))
        try:
            conn.send(reply)
        except (EOFError, OSError, BrokenPipeError):  # pragma: no cover
            break
    conn.close()
