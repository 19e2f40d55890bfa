"""POIs located on edges (paper §2).

The paper models POIs on vertices for exposition and notes that "POIs
on edges would still be generated as candidates in on-demand inverted
heaps".  The standard reduction materialises an edge-located POI as a
new vertex splitting the edge; this module implements it so users with
mid-edge POIs (the common OSM case) can use every index unchanged.

Because the reduction changes the vertex set, apply it *before*
building any index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.road_network import RoadNetwork, RoadNetworkError


@dataclass(frozen=True)
class EdgePlacement:
    """A POI located ``fraction`` of the way along edge ``(u, v)``."""

    u: int
    v: int
    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must be strictly inside (0, 1)")
        if self.u == self.v:
            raise ValueError("an edge placement needs two distinct endpoints")


def subdivide_for_pois(
    graph: RoadNetwork, placements: list[EdgePlacement]
) -> tuple[RoadNetwork, list[int]]:
    """Return a new network with one extra vertex per edge placement.

    The original edge ``(u, v)`` with weight ``w`` is replaced by
    ``(u, p)`` and ``(p, v)`` weighted ``fraction * w`` and
    ``(1 - fraction) * w``; coordinates are interpolated.  Multiple
    placements on the same edge are applied in fraction order so each
    splits the remaining sub-segment.

    Returns ``(new_graph, poi_vertices)`` with ``poi_vertices[i]`` the
    vertex id created for ``placements[i]``.
    """
    graph._require_symmetric("subdivide_for_pois")
    for placement in placements:
        if graph.edge_weight(placement.u, placement.v) is None:
            raise RoadNetworkError(
                f"no edge ({placement.u}, {placement.v}) to place a POI on"
            )
    new_graph = RoadNetwork(graph.num_vertices + len(placements))
    for v in graph.vertices():
        new_graph.set_coordinates(v, *graph.coordinates(v))

    # Group placements per undirected edge, keep input order -> ids.
    by_edge: dict[tuple[int, int], list[tuple[int, EdgePlacement]]] = {}
    for index, placement in enumerate(placements):
        u, v = placement.u, placement.v
        key = (min(u, v), max(u, v))
        # Normalise the fraction to run from key[0] to key[1].
        fraction = placement.fraction if u == key[0] else 1.0 - placement.fraction
        by_edge.setdefault(key, []).append(
            (index, EdgePlacement(key[0], key[1], fraction))
        )

    poi_vertices = [-1] * len(placements)
    next_vertex = graph.num_vertices
    split_edges = set(by_edge)
    for u, v, weight in graph.edges():
        key = (min(u, v), max(u, v))
        if key not in split_edges:
            new_graph.add_edge(u, v, weight)
    for key, entries in by_edge.items():
        u, v = key
        weight = graph.edge_weight(u, v)
        assert weight is not None
        (ux, uy), (vx, vy) = graph.coordinates(u), graph.coordinates(v)
        entries.sort(key=lambda pair: pair[1].fraction)
        previous_vertex = u
        previous_fraction = 0.0
        for index, placement in entries:
            poi = next_vertex
            next_vertex += 1
            poi_vertices[index] = poi
            f = placement.fraction
            new_graph.set_coordinates(
                poi, ux + (vx - ux) * f, uy + (vy - uy) * f
            )
            segment = (f - previous_fraction) * weight
            if segment <= 0:
                raise ValueError(
                    f"coincident placements on edge {key} are not supported"
                )
            new_graph.add_edge(previous_vertex, poi, segment)
            previous_vertex = poi
            previous_fraction = f
        tail = (1.0 - previous_fraction) * weight
        new_graph.add_edge(previous_vertex, v, tail)
    return new_graph, poi_vertices
