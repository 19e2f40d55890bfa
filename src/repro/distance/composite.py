"""SALT-style composite distance oracle: CH + hub labels + CSR batches.

SALT (PAPERS.md) observes that no single shortest-path technique wins
every query class on road networks, and that CH, labeling, and
goal-directed search can share one preprocessing pass.  This oracle
packages that idea for K-SPIN serving:

* **one CH build is shared** — its rank is both a p2p backend and the
  vertex order of the PLL labels, so the composite costs one contraction
  plus one label sweep, not two independent indexes;
* **point-to-point** queries route to the hub labels (one sorted merge;
  the fastest per-query backend) unless :meth:`calibrate` measured CH
  ahead on this graph;
* **pairwise batches** route between vectorised label merges and the
  CSR ``sssp_rows`` kernel on a per-batch cost estimate: a full SSSP
  row touches all ``n`` vertices, a label pass touches
  ``pairs-per-source x avg-label`` entries, so the kernel wins only on
  wide same-source batches;
* **kNN** always routes to the labels (the point of the exercise —
  :meth:`HubLabeling.label_rows` is the scan it and
  :mod:`repro.core.label_seeding` share).

Every routing decision lands in :attr:`route_counts`, so dominated
routing is observable (and gated in ``benchmarks/bench_labels.py``).
All backends are exact, so routing is a pure performance decision —
results are bit-identical whichever way a query goes.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

from repro.distance.base import DistanceOracle
from repro.distance.ch import ContractionHierarchy
from repro.distance.dijkstra_oracle import DijkstraOracle
from repro.distance.hub_labeling import HubLabeling
from repro.graph.road_network import RoadNetwork


class CompositeOracle(DistanceOracle):
    """Route each distance query to the cheapest exact backend.

    Parameters
    ----------
    graph:
        The road network; contracted once, labeled once.
    witness_settle_limit:
        Passed through to :class:`ContractionHierarchy`.
    """

    name = "Composite"

    def __init__(
        self, graph: RoadNetwork, witness_settle_limit: int = 500
    ) -> None:
        super().__init__()
        self._graph = graph
        self.ch = ContractionHierarchy(graph, witness_settle_limit)
        order = sorted(graph.vertices(), key=lambda v: (-self.ch.rank[v], v))
        self.labeling = HubLabeling(graph, order=order)
        self._sssp = DijkstraOracle(graph)
        self._p2p_backend = "phl"
        self.route_counts: dict[str, int] = {
            "p2p_phl": 0,
            "p2p_ch": 0,
            "batch_labels": 0,
            "batch_sssp": 0,
            "knn_labels": 0,
        }

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(
        self, pairs: Sequence[tuple[int, int]], repeats: int = 3
    ) -> dict[str, float]:
        """Measure PHL vs CH point-to-point on sample pairs; route p2p
        to the measured winner from now on.

        Returns the median per-pass seconds per backend.  Calibration
        only ever changes *speed* — both backends are exact.
        """
        if not pairs:
            raise ValueError("calibration needs at least one sample pair")
        timings: dict[str, float] = {}
        for label, oracle in (("phl", self.labeling), ("ch", self.ch)):
            passes = []
            for _ in range(repeats):
                start = time.perf_counter()
                for s, t in pairs:
                    oracle.distance(s, t)
                passes.append(time.perf_counter() - start)
            timings[label] = statistics.median(passes)
        self._p2p_backend = min(timings, key=lambda k: (timings[k], k))
        return timings

    @property
    def p2p_backend(self) -> str:
        """Current point-to-point routing target (``"phl"`` or ``"ch"``)."""
        return self._p2p_backend

    # ------------------------------------------------------------------
    # DistanceOracle surface
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        self.query_count += 1
        if self._p2p_backend == "ch":
            self.route_counts["p2p_ch"] += 1
            return self.ch.distance(source, target)
        self.route_counts["p2p_phl"] += 1
        return self.labeling.distance(source, target)

    def distances_many(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[float]:
        """Pairwise batch, routed by the per-source work estimate.

        A label pass costs about ``pairs-per-source x avg-label`` array
        reads per distinct source (plus one densify); a kernel SSSP row
        always costs ``n``.  The kernel therefore wins exactly when the
        per-source label work reaches ``n`` — wide batches over few
        sources.
        """
        if len(sources) != len(targets):
            raise ValueError(
                f"pairwise call needs equal lengths, got "
                f"{len(sources)} sources and {len(targets)} targets"
            )
        if not sources:
            return []
        if self._use_sssp_rows(len(sources), len(set(int(s) for s in sources))):
            self.route_counts["batch_sssp"] += len(sources)
            out = self._sssp.distances_many(sources, targets)
        else:
            self.route_counts["batch_labels"] += len(sources)
            out = self.labeling.distances_many(sources, targets)
        self.query_count += len(out)
        return out

    def knn_many(
        self, sources: Sequence[int], candidates: Sequence[int], k: int
    ) -> list[list[tuple[int, float]]]:
        """Per-source k nearest candidates — always the label backend."""
        self.route_counts["knn_labels"] += len(list(sources))
        out = self.labeling.knn_many(sources, candidates, k)
        self.query_count += sum(len(row) for row in out)
        return out

    def memory_bytes(self) -> int:
        """CH shortcuts plus label arrays (the shared preprocessing)."""
        return self.ch.memory_bytes() + self.labeling.memory_bytes()

    def _use_sssp_rows(self, num_pairs: int, distinct_sources: int) -> bool:
        if distinct_sources == 0:
            return False
        per_source = num_pairs / distinct_sources
        label_work = per_source * max(1.0, self.labeling.average_label_size())
        return label_work >= self._graph.num_vertices
