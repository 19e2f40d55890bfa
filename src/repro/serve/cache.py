"""Bounded LRU result cache with per-keyword invalidation.

Serving workloads are Zipf-skewed (the same popular keyword vectors and
query vertices repeat), so a small result cache absorbs a large share of
traffic.  Correctness over a mutable index requires *invalidation*:
every cached entry records the keywords it depends on, and an update
touching keyword ``t`` evicts exactly the entries whose keyword set
contains ``t`` — other keywords' entries survive, mirroring K-SPIN's
keyword-separated design where an update to ``inv(t)`` cannot change
any query that never reads ``t``'s diagram.

Admission is a separate policy object (:class:`HotKeywordAdmission`):
once the cache is full, every ``put`` displaces a resident entry, so a
slot should only go to a keyword vector the lossy counter has seen
enough traffic for — one-off scans stop churning the hot set out.
While the cache has spare capacity everything is admitted (an empty
slot costs nothing), so lightly-loaded servers behave exactly as
before.

Thread safety: every public method takes the internal mutex, so the
cache can be shared by all worker threads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterable

from repro.analysis.lockdebug import make_lock
from repro.obs.events import EVENTS
from repro.sketch.lossy import LossyCounter

#: Cache keys are ``(vertex, frozenset(keywords), k, kind, mode)``.
CacheKey = tuple[int, frozenset[str], int, str, Hashable]


def result_key(
    vertex: int,
    keywords: Iterable[str],
    k: int,
    kind: str,
    mode: Hashable = None,
) -> CacheKey:
    """Canonical cache key for one query.

    ``kind`` is the query family (``"bknn"`` / ``"topk"``); ``mode``
    carries family-specific knobs (e.g. ``conjunctive`` for BkNN) so
    variants never alias each other.
    """
    return (vertex, frozenset(keywords), k, kind, mode)


class ResultCache:
    """Thread-safe bounded LRU over query results.

    Parameters
    ----------
    capacity:
        Maximum number of cached entries; 0 disables caching entirely
        (every ``get`` misses, every ``put`` is dropped).
    """

    #: Shared state and its lock (read by KSP002 and ``lockdebug``).
    _guarded_by = {
        "_lock": ("hits", "misses", "invalidations", "_entries", "_by_keyword"),
    }

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._lock = make_lock("cache")
        self._entries: OrderedDict[CacheKey, list[tuple[int, float]]] = OrderedDict()
        # keyword -> keys of live entries that read that keyword's diagram.
        self._by_keyword: dict[str, set[CacheKey]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def full(self) -> bool:
        """Whether the next ``put`` of a new key must evict a resident."""
        with self._lock:
            return self.capacity > 0 and len(self._entries) >= self.capacity

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> list[tuple[int, float]] | None:
        """The cached result for ``key``, refreshing LRU order; else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def get_many(
        self, keys: Iterable[CacheKey]
    ) -> list[list[tuple[int, float]] | None]:
        """One-lock lookup sweep for a whole batch, order-preserving.

        Equivalent to ``[self.get(k) for k in keys]`` but takes the
        mutex once, so a batch of N queries costs one lock acquisition
        instead of N on the serving hot path.  Hit/miss counters and
        LRU order advance exactly as the sequential form would.
        """
        out: list[list[tuple[int, float]] | None] = []
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    self.misses += 1
                    out.append(None)
                else:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    out.append(entry)
        return out

    def put(self, key: CacheKey, results: list[tuple[int, float]]) -> None:
        """Store one result, evicting the least recently used on overflow."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = results
                return
            while len(self._entries) >= self.capacity:
                old_key, _ = self._entries.popitem(last=False)
                self._unindex(old_key)
            self._entries[key] = results
            for keyword in key[1]:
                self._by_keyword.setdefault(keyword, set()).add(key)

    def _unindex(self, key: CacheKey) -> None:  # ksp: holds[self._lock]
        for keyword in key[1]:
            keys = self._by_keyword.get(keyword)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_keyword[keyword]

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_keywords(self, keywords: Iterable[str]) -> int:
        """Evict every entry whose keyword set meets ``keywords``.

        Returns the number of entries evicted.  This is the hook wired
        to index updates: inserting/deleting an object with document
        ``doc`` calls ``invalidate_keywords(doc)``.
        """
        evicted = 0
        with self._lock:
            stale: set[CacheKey] = set()
            for keyword in keywords:
                stale.update(self._by_keyword.get(keyword, ()))
            for key in stale:
                if key in self._entries:
                    del self._entries[key]
                    self._unindex(key)
                    evicted += 1
            self.invalidations += evicted
        if evicted:
            # Outside the cache mutex: the recorder has its own lock and
            # an eviction storm must not serialise behind event writes.
            EVENTS.emit("cache.evict", entries=evicted)
        return evicted

    def invalidate_all(self) -> int:
        """Drop everything (used for wholesale rebuilds)."""
        with self._lock:
            evicted = len(self._entries)
            self._entries.clear()
            self._by_keyword.clear()
            self.invalidations += evicted
        return evicted

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        """Hits over lookups so far (0.0 before any lookup)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Counters for the ``/metrics`` endpoint."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "hit_rate": self.hits / total if total else 0.0,
            }


class HotKeywordAdmission:
    """Lossy-counter gate deciding which results deserve an LRU slot.

    Every executed query ``observe``\\ s its keywords; ``admit`` is
    consulted at ``put`` time and answers *yes* when the cache still has
    spare capacity (an empty slot is free) or when any of the query's
    keywords is hot — tracked by the counter with at least
    ``hot_threshold`` observations.  Under Zipf traffic the hot set
    stays tracked (lossy counting never drops an item above its support
    bound), while one-off keyword vectors are pruned and stop evicting
    popular entries.

    Index updates do **not** touch heat: heat measures query traffic,
    not index contents, so an ``UpdateOp`` invalidating a hot keyword's
    cached results leaves its admission priority intact — the next
    query re-fills the slot.

    Thread safety: one mutex around the counter, same discipline as the
    cache itself.
    """

    def __init__(
        self, epsilon: float = 0.001, hot_threshold: int = 2
    ) -> None:
        if hot_threshold < 1:
            raise ValueError("hot_threshold must be positive")
        self.hot_threshold = hot_threshold
        self._lock = make_lock("cache.admission")
        self._heat = LossyCounter(epsilon=epsilon)
        self.admitted = 0
        self.rejected = 0

    def observe(self, keywords: Iterable[str]) -> None:
        """Record one query's keyword traffic."""
        with self._lock:
            for keyword in keywords:
                self._heat.add(keyword)

    def observe_many(self, keyword_vectors: Iterable[Iterable[str]]) -> None:
        """Record a whole batch's keyword traffic under one lock."""
        with self._lock:
            for keywords in keyword_vectors:
                for keyword in keywords:
                    self._heat.add(keyword)

    def heat(self, keyword: str) -> int:
        """The keyword's tracked observation count (0 if cold/pruned)."""
        with self._lock:
            return self._heat.estimate(keyword)

    def is_hot(self, keywords: Iterable[str]) -> bool:
        """Whether any keyword has reached ``hot_threshold`` heat."""
        with self._lock:
            return any(
                self._heat.estimate(keyword) >= self.hot_threshold
                for keyword in keywords
            )

    def admit(self, keywords: Iterable[str], under_pressure: bool) -> bool:
        """Should this result occupy a slot?

        ``under_pressure`` is :meth:`ResultCache.full` — only a full
        cache pays an eviction per admission, so only then does the
        gate bite.
        """
        decision = not under_pressure or self.is_hot(keywords)
        with self._lock:
            if decision:
                self.admitted += 1
            else:
                self.rejected += 1
        if not decision:
            EVENTS.emit("cache.admit_rejected")
        return decision

    def snapshot(self) -> dict[str, Any]:
        """Counters plus the serialized heat counter.

        The raw ``counter`` payload rides along so the cluster
        coordinator can merge per-worker heat exactly (lossy-counter
        merge keeps the error bound over the pooled stream).
        """
        with self._lock:
            return {
                "hot_threshold": self.hot_threshold,
                "observed": self._heat.observed,
                "tracked": len(self._heat),
                "admitted": self.admitted,
                "rejected": self.rejected,
                "top": self._heat.top(10),
                "counter": self._heat.to_dict(),
            }
