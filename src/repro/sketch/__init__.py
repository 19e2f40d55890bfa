"""``repro.sketch`` — mergeable probabilistic sketches for serving.

Stdlib-only, picklable, mergeable summaries that let routing, planning,
cache admission, and overload protection run on O(KB) state instead of
full inverted lists:

* :class:`BloomFilter` — per-shard keyword membership (no false
  negatives, so shard skipping is recall-safe).
* :class:`HyperLogLog` — per-keyword object cardinality for the
  selectivity ``rho`` the K-SPIN planner keys on (Observation 1).
* :class:`LossyCounter` — online hot-keyword detection in bounded
  memory (cache admission).
* :class:`LeakyBucket` / :class:`ClientRateLimiter` — per-client
  request shaping for the HTTP front door.
* :class:`IndexSketches` — the registry bundling Bloom + HLL summaries
  of one keyword-separated index, with incremental update folding.
* :func:`stable_hash` / :func:`stable_hash64` — process-stable hashing.

Every sketch offers ``merge()`` (Bloom and HLL merges are *exactly*
the pooled build; lossy counting keeps its error bound over the pooled
stream), ``to_dict``/``from_dict`` JSON round-trips, and pickling for
IPC.  See ``docs/sketches.md`` for tuning tables.
"""

from repro.sketch.bloom import BloomFilter
from repro.sketch.hll import HyperLogLog
from repro.sketch.leaky import ClientRateLimiter, LeakyBucket
from repro.sketch.lossy import LossyCounter
from repro.sketch.registry import IndexSketches
from repro.sketch.ring import stable_hash, stable_hash64

__all__ = [
    "BloomFilter",
    "ClientRateLimiter",
    "HyperLogLog",
    "IndexSketches",
    "LeakyBucket",
    "LossyCounter",
    "stable_hash",
    "stable_hash64",
]
