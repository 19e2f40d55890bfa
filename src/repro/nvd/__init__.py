"""Network Voronoi diagrams: exact, ρ-approximate, containers, builders."""

from repro.nvd.approximate import ApproximateNVD, exact_nvd_region_quadtree_bytes
from repro.nvd.builder import (
    available_cores,
    build_keyword_nvds,
    parallel_efficiency,
    simulated_parallel_makespan,
)
from repro.nvd.quadtree import MortonQuadtree
from repro.nvd.voronoi import NetworkVoronoiDiagram

__all__ = [
    "ApproximateNVD",
    "MortonQuadtree",
    "NetworkVoronoiDiagram",
    "available_cores",
    "build_keyword_nvds",
    "exact_nvd_region_quadtree_bytes",
    "parallel_efficiency",
    "simulated_parallel_makespan",
]
