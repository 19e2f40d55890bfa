"""Road-network graph substrate: structure, searches, generators, I/O."""

from repro.graph.dijkstra import (
    INFINITY,
    dijkstra_all,
    dijkstra_distance,
    dijkstra_to_targets,
    multi_source_dijkstra,
    network_expansion_knn,
)
from repro.graph.generators import (
    perturbed_grid_network,
    random_geometric_network,
    with_one_way_streets,
)
from repro.graph.io import DimacsFormatError, read_dimacs, write_dimacs
from repro.graph.road_network import RoadNetwork, RoadNetworkError

__all__ = [
    "INFINITY",
    "RoadNetwork",
    "RoadNetworkError",
    "DimacsFormatError",
    "dijkstra_all",
    "dijkstra_distance",
    "dijkstra_to_targets",
    "multi_source_dijkstra",
    "network_expansion_knn",
    "perturbed_grid_network",
    "random_geometric_network",
    "read_dimacs",
    "with_one_way_streets",
    "write_dimacs",
]
