"""Admission control: a bounded worker pool that sheds load.

An unbounded queue in front of a saturated query engine turns overload
into unbounded latency for *everyone*; the standard discipline is to
bound the queue and reject excess work immediately (an explicit
503-style error the client can retry against another replica).  This
module wraps :class:`concurrent.futures.ThreadPoolExecutor` with:

* a hard cap on in-flight work (``workers`` running + ``max_queue``
  waiting) — submissions past the cap raise :class:`ServerSaturated`
  instead of queueing;
* a per-request deadline — callers waiting past it get
  :class:`DeadlineExceeded` (the work itself is cancelled if it has not
  started, and otherwise finishes harmlessly in the background);
* a live ``queue_depth`` gauge for the ``/metrics`` endpoint.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, TypeVar

from repro.analysis.lockdebug import make_lock

T = TypeVar("T")


class ServerSaturated(RuntimeError):
    """Raised when the bounded queue is full; callers should back off."""


class DeadlineExceeded(TimeoutError):
    """Raised when a request misses its per-request deadline."""


class WorkerPool:
    """Bounded ThreadPoolExecutor with admission control.

    Parameters
    ----------
    workers:
        Concurrent worker threads executing queries.
    max_queue:
        Admitted-but-not-yet-running requests allowed to wait; beyond
        ``workers + max_queue`` in flight, :meth:`submit` sheds.
    default_deadline:
        Seconds a caller of :meth:`run` waits before giving up
        (None = wait forever).
    """

    def __init__(
        self,
        workers: int = 4,
        max_queue: int = 64,
        default_deadline: float | None = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.workers = workers
        self.max_queue = max_queue
        self.default_deadline = default_deadline
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._lock = make_lock("admission")
        self._in_flight = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[[], T]) -> "concurrent.futures.Future[T]":
        """Admit ``fn`` or raise :class:`ServerSaturated`."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            if self._in_flight >= self.workers + self.max_queue:
                raise ServerSaturated(
                    f"queue full: {self._in_flight} requests in flight "
                    f"(capacity {self.workers} running + {self.max_queue} queued)"
                )
            self._in_flight += 1
        try:
            future = self._executor.submit(fn)
        except BaseException:
            with self._lock:
                self._in_flight -= 1
            raise
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, _future: "concurrent.futures.Future") -> None:
        with self._lock:
            self._in_flight -= 1

    def run(self, fn: Callable[[], T], deadline: float | None = None) -> T:
        """Admit ``fn``, wait for its result, enforce the deadline.

        Raises :class:`ServerSaturated` on a full queue and
        :class:`DeadlineExceeded` when the deadline passes first.
        """
        future = self.submit(fn)
        if deadline is None:
            deadline = self.default_deadline
        try:
            return future.result(timeout=deadline)
        except concurrent.futures.TimeoutError:
            future.cancel()  # drop it if it never started
            raise DeadlineExceeded(
                f"request missed its {deadline}s deadline"
            ) from None

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet finished (running + waiting)."""
        with self._lock:
            return self._in_flight

    def close(self, wait: bool = True) -> None:
        """Stop admitting and (optionally) wait for in-flight work."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
