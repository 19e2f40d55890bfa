"""Leaky-bucket rate limiting for the HTTP front door.

A leaky bucket drains at ``rate`` tokens per second and holds at most
``capacity`` tokens; each request pours one token in.  A client may
burst up to ``capacity`` requests instantly, then is held to the
steady-state ``rate`` — the classic shaping behaviour, implemented
lazily (no timer thread): the level is decayed on each touch from the
elapsed wall-clock time.

The clock is injectable so tests run instantly and deterministically.

:class:`ClientRateLimiter` maps client IDs to buckets, prunes buckets
that have fully drained and gone idle (unbounded client-ID streams must
not leak memory), and reports how long a rejected client should wait —
the ``Retry-After`` value the HTTP layer sends with a 429.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

__all__ = ["ClientRateLimiter", "LeakyBucket"]


class LeakyBucket:
    """A single leaky bucket.

    Parameters
    ----------
    rate:
        Drain rate in tokens per second (steady-state requests/sec).
    capacity:
        Maximum tokens the bucket holds (burst allowance).
    clock:
        Monotonic-seconds source; defaults to :func:`time.monotonic`.
    """

    __slots__ = ("rate", "capacity", "_level", "_updated", "_clock")

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        if capacity < 1.0:
            raise ValueError("capacity must be at least 1")
        self.rate = rate
        self.capacity = capacity
        self._level = 0.0
        self._updated = clock()
        self._clock = clock

    def _drain(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._updated)
        self._level = max(0.0, self._level - elapsed * self.rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> float | None:
        """Pour ``tokens`` in if they fit.

        Returns ``None`` on success, or the seconds until the bucket
        will have drained enough to accept them (the ``Retry-After``).
        """
        if tokens <= 0.0:
            raise ValueError("tokens must be positive")
        self._drain()
        if self._level + tokens <= self.capacity:
            self._level += tokens
            return None
        overflow = self._level + tokens - self.capacity
        return overflow / self.rate

    def level(self) -> float:
        """The current token level after draining."""
        self._drain()
        return self._level

    def idle(self) -> bool:
        """True when the bucket has fully drained (safe to prune)."""
        return self.level() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"LeakyBucket(rate={self.rate}, capacity={self.capacity}, "
            f"level={self._level:.2f})"
        )


class ClientRateLimiter:
    """Per-client leaky buckets behind a single lock.

    Parameters
    ----------
    rate / capacity:
        The per-client bucket parameters (every client gets the same
        limits; an unset client ID shares the ``"anonymous"`` bucket).
    clock:
        Injectable monotonic clock shared by all buckets.
    max_clients:
        A hard cap on tracked buckets; when exceeded, fully-drained
        buckets are pruned, and if none are idle the newest request is
        still admitted against a fresh bucket after evicting the
        stalest one (memory safety beats perfect fairness for
        adversarial client-ID churn).
    """

    def __init__(
        self,
        rate: float = 50.0,
        capacity: float = 100.0,
        clock: Callable[[], float] = time.monotonic,
        max_clients: int = 10_000,
    ) -> None:
        if max_clients < 1:
            raise ValueError("max_clients must be positive")
        self.rate = rate
        self.capacity = capacity
        self.max_clients = max_clients
        self._clock = clock
        self._buckets: dict[str, LeakyBucket] = {}
        self._lock = threading.Lock()
        self.allowed = 0
        self.limited = 0

    def check(self, client: str, cost: float = 1.0) -> float | None:
        """Charge ``cost`` tokens to ``client`` (one per carried query).

        A plain request costs 1; a ``/v1/batch`` request costs its batch
        size so batching cannot bypass the limit.  Returns ``None`` when
        admitted, or the ``Retry-After`` seconds until the *whole*
        charge would fit.  A cost above ``capacity`` can never fit and
        always limits (callers should split such batches).
        """
        if cost <= 0.0:
            raise ValueError("cost must be positive")
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                if len(self._buckets) >= self.max_clients:
                    self._prune_locked()
                bucket = LeakyBucket(self.rate, self.capacity, clock=self._clock)
                self._buckets[client] = bucket
            retry_after = bucket.try_acquire(cost)
            if retry_after is None:
                self.allowed += 1
            else:
                self.limited += 1
            return retry_after

    def _prune_locked(self) -> None:  # ksp: holds[self._lock]
        idle = [client for client, bucket in self._buckets.items() if bucket.idle()]
        for client in idle:
            del self._buckets[client]
        if len(self._buckets) >= self.max_clients:
            # No idle bucket to reclaim: evict the lowest-level (stalest)
            # bucket so a new client can still be tracked.
            stalest = min(self._buckets, key=lambda c: self._buckets[c].level())
            del self._buckets[stalest]

    def tracked_clients(self) -> int:
        with self._lock:
            return len(self._buckets)

    def snapshot(self) -> dict[str, Any]:
        """Counters for the metrics endpoint."""
        with self._lock:
            return {
                "rate": self.rate,
                "capacity": self.capacity,
                "allowed": self.allowed,
                "limited": self.limited,
                "tracked_clients": len(self._buckets),
            }
