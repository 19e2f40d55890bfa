"""The paper's §5.1 query cost model, instrumented.

For a BkNN query the paper derives total time

    O(kappa * m * Delta * log|O|  +  kappa * NDIST)

where ``kappa >= k`` is the number of loop iterations (candidates
examined), ``m`` the landmark count, ``Delta`` the NVD adjacency degree,
and ``NDIST`` the cost of one exact network distance.  The paper claims
``kappa`` is a small constant multiple of k — at most 3k for BkNN and
5k for top-k over all its settings.

This module fits the model's two constants from measured queries and
predicts query time from a :class:`~repro.core.query_processor.QueryStats`
snapshot, so benchmarks can check how much of the measured time the
model explains and tests can check the kappa bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import api
from repro.core.framework import KSpin
from repro.core.query_processor import QueryStats
from repro.datasets.workloads import Query


@dataclass(frozen=True)
class CostModel:
    """Fitted per-operation costs of the §5.1 model."""

    heap_unit_seconds: float  # cost of one LB computation + heap insert
    ndist_seconds: float  # cost of one exact network distance
    overhead_seconds: float  # fixed per-query cost (heap creation etc.)

    def predict_seconds(self, stats: QueryStats) -> float:
        """Predicted query time for an executed query's stats."""
        return (
            self.overhead_seconds
            + stats.lower_bound_computations * self.heap_unit_seconds
            + stats.distance_computations * self.ndist_seconds
        )


@dataclass
class KappaReport:
    """Candidate-efficiency summary over a workload."""

    k: int
    mean_kappa: float
    max_kappa: int

    @property
    def mean_multiple_of_k(self) -> float:
        return self.mean_kappa / self.k

    @property
    def max_multiple_of_k(self) -> float:
        return self.max_kappa / self.k


def measure_kappa(
    run_query: Callable[[Query], object],
    stats_source: Callable[[], QueryStats],
    workload: Sequence[Query],
    k: int,
) -> KappaReport:
    """Run a workload and summarise kappa (iterations per query)."""
    if not workload:
        raise ValueError("workload must not be empty")
    kappas = []
    for query in workload:
        run_query(query)
        kappas.append(stats_source().iterations)
    return KappaReport(
        k=k,
        mean_kappa=sum(kappas) / len(kappas),
        max_kappa=max(kappas),
    )


def fit_cost_model(
    kspin: KSpin,
    workload: Sequence[Query],
    k: int = 10,
) -> CostModel:
    """Fit the model constants by least squares over a measured workload.

    Solves ``time ~= overhead + a * lower_bounds + b * distances`` over
    the workload's BkNN queries (normal equations, 3 unknowns).
    """
    import time as _time

    if len(workload) < 3:
        raise ValueError("need at least three queries to fit three constants")
    rows: list[tuple[float, float, float]] = []
    times: list[float] = []
    for query in workload:
        start = _time.perf_counter()
        kspin.execute(api.Query(query.vertex, query.keywords, k))
        elapsed = _time.perf_counter() - start
        stats = kspin.last_stats
        rows.append(
            (1.0, float(stats.lower_bound_computations), float(stats.distance_computations))
        )
        times.append(elapsed)
    import numpy as np
    from scipy.optimize import nnls

    design = np.array(rows)
    target = np.array(times)
    # Non-negative least squares: per-operation costs cannot be negative,
    # and clamping an unconstrained fit would distort the other terms.
    solution, _ = nnls(design, target)
    overhead, heap_unit, ndist = (float(x) for x in solution)
    return CostModel(
        heap_unit_seconds=heap_unit,
        ndist_seconds=ndist,
        overhead_seconds=overhead,
    )


def model_accuracy(
    model: CostModel,
    kspin: KSpin,
    workload: Sequence[Query],
    k: int = 10,
) -> float:
    """Mean relative error of the model's predictions on fresh queries."""
    import time as _time

    if not workload:
        raise ValueError("workload must not be empty")
    errors = []
    for query in workload:
        start = _time.perf_counter()
        kspin.execute(api.Query(query.vertex, query.keywords, k))
        measured = _time.perf_counter() - start
        predicted = model.predict_seconds(kspin.last_stats)
        if measured > 0:
            errors.append(abs(predicted - measured) / measured)
    return sum(errors) / len(errors) if errors else math.inf
