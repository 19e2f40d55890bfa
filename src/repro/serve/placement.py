"""Placement: which worker answers which query.

Every worker holds the *complete* index (workers are forked from one
built parent), so placement is a routing decision, never a correctness
one — any worker can answer any query.  The whole query goes to the
least-loaded worker, round-robin on ties; each worker's result cache
independently converges to the global hot set.

Empty-keyword pruning
---------------------
The router takes the index's exact ``keyword -> |inv(t)|`` count
(``kspin.index.inverted_size`` in the coordinator).  A keyword whose
count is 0 has no live object, so a query that needs one is answered
empty without a dispatch (``plan`` returns ``None``): any empty keyword
kills a conjunctive query; all keywords empty kills any query.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.analysis.lockdebug import make_lock
from repro.api import Query


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

    def plan(self, query: Query, inflight: list[int]) -> int | None:
        """The target worker index, or ``None`` when the answer is
        provably empty and nothing should be dispatched."""
        rejected = _rejected_keywords(query, self._inverted_size)
        if _short_circuits(query, rejected):
            return None
        with self._lock:
            turn = next(self._counter)
        order = [(inflight[i], (i - turn) % self.num_workers, i)
                 for i in range(self.num_workers)]
        return min(order)[2]
