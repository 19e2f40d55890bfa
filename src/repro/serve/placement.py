"""Placement policies: which worker(s) answer which query.

Every worker holds the *complete* index (workers are forked from one
built parent), so placement is a routing/cache-affinity decision, never
a correctness one — any worker can answer any query.  Two policies:

``replicate``
    Queries go to any worker (least-loaded, round-robin tie-break).
    Maximises throughput for uniform workloads; each worker's result
    cache independently converges to the global hot set.

``shard-by-keyword``
    Keywords hash (stable CRC-32, not the randomised builtin ``hash``)
    onto shards.  A query whose keywords live on one shard routes
    there — that shard's cache then owns those keywords exclusively,
    so N workers cache N disjoint hot sets instead of N copies of one.
    Multi-shard queries:

    * **conjunctive BkNN / top-k** route whole to the owner of the
      *rarest* keyword (fewest live objects — K-SPIN's conjunctive
      algorithm iterates the rarest inverted heap first, so that
      shard's cache affinity matters most).  Safe precisely because
      sharding is routing, not data partitioning.
    * **disjunctive BkNN** scatters: each owning shard answers the
      sub-query over its own keyword subset, and the coordinator
      merges per-keyword kNN lists — the disjunctive result is the
      k best of the union, which distributes over keyword subsets.

Empty-keyword pruning
---------------------
Both routers take the index's exact ``keyword -> |inv(t)|`` count
(``kspin.index.inverted_size`` in the coordinator).  A keyword whose
count is 0 has no live object, so the router:

* short-circuits the whole query to an empty plan
  (``RoutingPlan.empty``) — any empty keyword kills a conjunctive
  query; all keywords empty kills any query;
* drops empty keywords from a disjunctive scatter, skipping every
  shard that owned only empty keywords (``RoutingPlan.skipped``
  records them for the fan-out counters).
"""

from __future__ import annotations

import itertools
import zlib
from typing import Callable
from dataclasses import dataclass, field

from repro.analysis.lockdebug import make_lock
from repro.api import Query


def shard_of(keyword: str, num_shards: int) -> int:
    """The stable shard index owning ``keyword``.

    CRC-32 of the UTF-8 bytes rather than ``hash()``: Python randomises
    string hashes per process, and the parent router and any rehydrated
    worker must agree on ownership across process generations.
    """
    return zlib.crc32(keyword.encode("utf-8")) % num_shards


@dataclass(frozen=True)
class RoutingPlan:
    """Where one query goes: one target, or a scatter set with sub-queries.

    ``assignments`` maps worker index -> the (sub-)query that worker
    runs.  ``scatter`` is True when results need a merge.  ``empty``
    marks a short circuit: some needed keyword has no live object, so
    the answer is empty and nothing is dispatched.  ``skipped`` lists
    shards a full scatter-gather would have dispatched to but that own
    only empty keywords.
    """

    assignments: dict[int, Query] = field(default_factory=dict)
    scatter: bool = False
    empty: bool = False
    skipped: tuple[int, ...] = ()

    @property
    def single_target(self) -> int:
        (index,) = self.assignments.keys()
        return index


def _rejected_keywords(
    query: Query, inverted_size: Callable[[str], int]
) -> set[str]:
    """Query keywords no live object carries."""
    return {kw for kw in query.keywords if not inverted_size(kw)}


def _short_circuits(query: Query, rejected: set[str]) -> bool:
    """Whether the rejection set proves the whole answer is empty.

    Conjunctive queries need every keyword, so one dead keyword is
    fatal; disjunctive/top-k queries are empty only when *no* keyword
    has objects.
    """
    if not rejected:
        return False
    if query.conjunctive:
        return True
    return rejected.issuperset(query.keywords)


class ReplicateRouter:
    """Any worker can serve any query; pick the least-loaded one.

    Load is the caller-maintained in-flight count per worker; ties are
    broken round-robin so an idle cluster still spreads requests.
    """

    name = "replicate"

    def __init__(
        self, num_workers: int, inverted_size: Callable[[str], int]
    ) -> None:
        """``inverted_size(keyword) -> int`` is the exact live-object
        count; a keyword counting 0 is pruned."""
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self._inverted_size = inverted_size
        self._counter = itertools.count()
        self._lock = make_lock("placement.replicate")

    def plan(self, query: Query, inflight: list[int]) -> RoutingPlan:
        rejected = _rejected_keywords(query, self._inverted_size)
        if _short_circuits(query, rejected):
            return RoutingPlan(empty=True)
        with self._lock:
            turn = next(self._counter)
        order = [(inflight[i], (i - turn) % self.num_workers, i)
                 for i in range(self.num_workers)]
        target = min(order)[2]
        return RoutingPlan(assignments={target: query})


class KeywordShardRouter:
    """Keyword-hash placement with scatter-gather for disjunctive BkNN."""

    name = "shard-by-keyword"

    def __init__(
        self, num_workers: int, inverted_size: Callable[[str], int]
    ) -> None:
        """``inverted_size(keyword) -> int`` is the exact live-object
        count: it ranks keyword rarity for the conjunctive/top-k
        single-owner rule, and a keyword counting 0 is pruned."""
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self._inverted_size = inverted_size

    def plan(self, query: Query, inflight: list[int]) -> RoutingPlan:
        rejected = _rejected_keywords(query, self._inverted_size)
        if _short_circuits(query, rejected):
            return RoutingPlan(empty=True)
        live = [kw for kw in query.keywords if kw not in rejected]
        shards_all = {
            shard_of(keyword, self.num_workers) for keyword in query.keywords
        }
        by_shard: dict[int, list[str]] = {}
        for keyword in live:
            by_shard.setdefault(
                shard_of(keyword, self.num_workers), []
            ).append(keyword)
        skipped = tuple(sorted(shards_all - set(by_shard)))
        if query.kind == "topk" or query.conjunctive:
            # Whole query to the rarest *live* keyword's owner:
            # conjunctive results need every keyword's diagram anyway
            # (each worker has them all), and the rarest inverted heap
            # drives the search, so pin its cache locality.  The query
            # is never narrowed here — top-k relevance normalisation
            # spans the full keyword vector.
            rarest = min(
                live, key=lambda kw: (self._inverted_size(kw), kw),
            )
            target = shard_of(rarest, self.num_workers)
            return RoutingPlan(assignments={target: query})
        if len(by_shard) == 1:
            # One live shard: route the narrowed query there.  Dropping
            # empty keywords is result-identical (they contribute no
            # candidates).
            (target,) = by_shard.keys()
            narrowed = query if len(live) == len(query.keywords) else Query(
                vertex=query.vertex,
                keywords=tuple(live),
                k=query.k,
                kind=query.kind,
                mode=query.mode,
            )
            return RoutingPlan(
                assignments={target: narrowed}, skipped=skipped
            )
        # Disjunctive BkNN distributes over keyword subsets: each shard
        # answers k-best among its own live keywords, the coordinator
        # merges; shards owning only rejected keywords are skipped.
        assignments = {
            shard: Query(
                vertex=query.vertex,
                keywords=tuple(keywords),
                k=query.k,
                kind=query.kind,
                mode=query.mode,
            )
            for shard, keywords in by_shard.items()
        }
        return RoutingPlan(
            assignments=assignments, scatter=True, skipped=skipped
        )
