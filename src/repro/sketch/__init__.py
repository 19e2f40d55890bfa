"""``repro.sketch`` — bounded-memory summaries of traffic from outside.

Both structures summarise a stream the process does not control (query
keywords, client identities), where exact state would grow without
bound:

* :class:`LossyCounter` — online hot-keyword detection in bounded
  memory (cache admission), mergeable across workers with its error
  bound intact.
* :class:`LeakyBucket` / :class:`ClientRateLimiter` — per-client
  request shaping for the HTTP front door (429 + ``Retry-After``).

What the index already holds exactly is asked of the index:
``|inv(t)|`` is ``KeywordSeparatedIndex.inverted_size``.  See
``docs/sketches.md``.
"""

from repro.sketch.leaky import ClientRateLimiter, LeakyBucket
from repro.sketch.lossy import LossyCounter

__all__ = [
    "ClientRateLimiter",
    "LeakyBucket",
    "LossyCounter",
]
