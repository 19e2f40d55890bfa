"""Index-free distance oracle: plain Dijkstra.

This is the "no pre-processing" end of the trade-off spectrum the
paper's Network Distance Module spans.  It also serves as the ground
truth every indexed oracle is tested against.

The oracle delegates to :mod:`repro.graph.dijkstra`, so its searches
run in C over the calling thread's
:class:`~repro.kernels.SearchWorkspace`.  The workspace's one-slot SSSP
memo is what makes it fast on the refinement path: the query
processor asks ``distance(query, candidate)`` with the *same* source
for every candidate, so one search amortises over the whole candidate
set.  Because the workspace lives in a per-thread registry — never on
the oracle — the oracle stays stateless, thread-safe, and picklable
(cluster snapshots ship it as-is).
"""

from __future__ import annotations

from typing import Sequence

from repro import kernels
from repro.distance.base import DistanceOracle
from repro.graph.dijkstra import dijkstra_distance
from repro.graph.road_network import RoadNetwork


class DijkstraOracle(DistanceOracle):
    """Exact distances by a memoised full Dijkstra; no index at all."""

    name = "Dijkstra"

    def __init__(self, graph: RoadNetwork) -> None:
        super().__init__()
        self._graph = graph

    def distance(self, source: int, target: int) -> float:
        self.query_count += 1
        return dijkstra_distance(self._graph, source, target)

    def distances_many(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[float]:
        """One batched CSR call for pairwise distances.

        All rows for the distinct sources come out of a single
        ``sssp_rows`` C invocation (one scipy dispatch for the whole
        batch), then each ``(source, target)`` pair is a fancy-index
        pick.  Bit-identical to per-pair :meth:`distance`: both compute
        exact SSSP.
        """
        if len(sources) != len(targets):
            raise ValueError(
                f"pairwise call needs equal lengths, got "
                f"{len(sources)} sources and {len(targets)} targets"
            )
        if not sources:
            return []
        order = sorted(set(int(s) for s in sources))
        row_of = {s: i for i, s in enumerate(order)}
        rows = kernels.sssp_rows(self._graph.csr(), order)
        self.query_count += len(sources)
        return [float(rows[row_of[int(s)], int(t)]) for s, t in zip(sources, targets)]

    def memory_bytes(self) -> int:
        return 0  # uses only the input graph
