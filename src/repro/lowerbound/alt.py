"""ALT landmark lower bounds (Goldberg & Harrelson, SODA 2005).

ALT pre-computes exact distances from ``m`` landmark vertices to every
vertex.  The triangle inequality then gives, for any pair ``(u, v)``::

    LB(u, v) = max over landmarks l of |d(l, u) - d(l, v)|

With one-way streets each landmark keeps two tables, ``d(l -> v)`` and
``d(v -> l)``, and each gives one admissible side of that absolute
value for the directional distance::

    d(u -> v) >= d(u -> l) - d(v -> l)
    d(u -> v) >= d(l -> v) - d(l -> u)

On a symmetric graph the two tables are one array and the two sides are
the absolute value above, which is what the methods below then compute.

The paper combines K-SPIN with ALT because it provides effective bounds
on road networks [16]; ``m`` is "a small constant (typically 16)"
(paper §5.1).  Landmarks are chosen with the standard farthest-point
heuristic, which spreads them to the network periphery where they bound
best.

Distance tables are stored as numpy arrays: one O(1) vectorised max-abs-
difference per bound, and 8 bytes per entry for the index-size studies.
"""

from __future__ import annotations

import random

import numpy as np

from repro.graph.dijkstra import dijkstra_all
from repro.graph.road_network import RoadNetwork
from repro.lowerbound.base import LowerBounder


class AltLowerBounder(LowerBounder):
    """Landmark (ALT) lower bounds via the triangle inequality.

    Parameters
    ----------
    graph:
        Road network to index.
    num_landmarks:
        Landmark count ``m`` (paper default 16).
    seed:
        Seed for the random initial landmark of farthest-point selection.

    Examples
    --------
    >>> from repro.graph import perturbed_grid_network, dijkstra_distance
    >>> g = perturbed_grid_network(5, 5, seed=0)
    >>> alt = AltLowerBounder(g, num_landmarks=4)
    >>> alt.lower_bound(0, 24) <= dijkstra_distance(g, 0, 24)
    True
    """

    name = "ALT"

    def __init__(self, graph: RoadNetwork, num_landmarks: int = 16, seed: int = 0) -> None:
        if num_landmarks < 1:
            raise ValueError("need at least one landmark")
        num_landmarks = min(num_landmarks, graph.num_vertices)
        # Selection already runs one SSSP per chosen landmark; keep those
        # rows instead of recomputing the whole table afterwards.
        self.landmarks, rows = self._select_landmarks(graph, num_landmarks, seed)
        self._table = _nan_table(rows)  # d(l -> v)
        # d(v -> l): the same array unless the graph has one-way arcs.
        self._to = self._table if graph.symmetric else _nan_table(
            [dijkstra_all(graph, l, reverse=True) for l in self.landmarks]
        )

    @staticmethod
    def _select_landmarks(
        graph: RoadNetwork, count: int, seed: int
    ) -> tuple[list[int], list[list[float]]]:
        """Farthest-point landmark selection, returning the distance rows.

        Each landmark's full SSSP drives the next farthest-point choice
        *and* becomes its table row, so the table costs ``m + 1``
        searches total instead of ``2m``.
        """
        rng = random.Random(seed)
        first = rng.randrange(graph.num_vertices)
        # The first *chosen* landmark is the vertex farthest from a random
        # start, pushing it to the periphery.
        distances = dijkstra_all(graph, first)
        landmarks = [max(graph.vertices(), key=lambda v: _finite(distances[v]))]
        rows = [dijkstra_all(graph, landmarks[0])]
        min_distance = [_finite(d) for d in rows[0]]
        while len(landmarks) < count:
            candidate = max(graph.vertices(), key=lambda v: min_distance[v])
            if candidate in landmarks:  # graph smaller than landmark count
                break
            landmarks.append(candidate)
            rows.append(dijkstra_all(graph, candidate))
            for v, d in enumerate(rows[-1]):
                d = _finite(d)
                if d < min_distance[v]:
                    min_distance[v] = d
        return landmarks, rows

    def _one_sided(self, u: object, v: object) -> np.ndarray:
        """Per-landmark bounds on ``d(u -> v)`` over one-way streets, for
        index expressions ``u``/``v`` into the table columns.  ``fmax``
        skips the ``nan`` of a landmark that cannot bound the pair and
        floors the result at the trivial bound 0."""
        via_to = self._to[:, u] - self._to[:, v]
        via_from = self._table[:, v] - self._table[:, u]
        return np.fmax(np.fmax(via_to, via_from), 0.0)

    def lower_bound(self, u: int, v: int) -> float:
        """``max_l |d(l,u) - d(l,v)|`` — always ``<= d(u -> v)``."""
        if u == v:
            return 0.0
        if self._to is self._table:
            difference = np.abs(self._table[:, u] - self._table[:, v])
        else:
            difference = self._one_sided(u, v)
        finite = difference[~np.isnan(difference)]
        if finite.size == 0:
            return 0.0
        return float(finite.max())

    def lower_bounds_to_many(self, u: int, others: list[int]) -> list[float]:
        """Vectorised ``lower_bound(u, v)`` for many ``v`` at once.

        This is the heap-seeding hot path: one fancy-indexed slice and
        one reduction for the whole batch, instead of a numpy round-trip
        per pair.
        """
        if not others:
            return []
        if self._to is self._table:
            column = self._table[:, u][:, None]
            differences = np.abs(self._table[:, others] - column)
        else:
            differences = self._one_sided([u], others)
        # nan entries mark landmark rows that cannot bound this pair.
        bounds = np.max(np.nan_to_num(differences, nan=0.0), axis=0)
        return list(bounds.tolist())

    def lower_bounds_many(
        self, sources: list[int], targets: list[int]
    ) -> list[float]:
        """Pairwise ``lower_bound(s_i, t_i)`` for a whole batch at once.

        The batched-execution counterpart of :meth:`lower_bounds_to_many`:
        one fancy-indexed gather over the landmark table covers every
        pair in a batch of queries (one numpy dispatch instead of one
        per query), bit-identical to the scalar form.
        """
        if len(sources) != len(targets):
            raise ValueError(
                f"pairwise call needs equal lengths, got "
                f"{len(sources)} sources and {len(targets)} targets"
            )
        if not sources:
            return []
        if self._to is self._table:
            differences = np.abs(self._table[:, sources] - self._table[:, targets])
        else:
            differences = self._one_sided(sources, targets)
        bounds = np.max(np.nan_to_num(differences, nan=0.0), axis=0)
        out = list(bounds.tolist())
        # The scalar form returns exactly 0.0 for u == v; the vector
        # arithmetic agrees (|x - x| = 0), but keep NaN-only columns
        # consistent with lower_bound's 0.0 fallback explicitly.
        return [0.0 if s == t else b for s, t, b in zip(sources, targets, out)]

    def memory_bytes(self) -> int:
        if self._to is self._table:
            return int(self._table.nbytes)
        return int(self._table.nbytes + self._to.nbytes)


def _nan_table(rows: list[list[float]]) -> np.ndarray:
    table = np.asarray(rows, dtype=np.float64)
    # Disconnected vertices would poison the arithmetic with inf - inf.
    table[~np.isfinite(table)] = np.nan
    return table


def _finite(value: float) -> float:
    return value if value < float("inf") else 0.0
