"""K-SPIN: keyword-separated indexing for spatial keyword queries on road networks.

A full reproduction of the K-SPIN framework (Abeywickrama, Cheema, Khan;
ICDE 2020 / TKDE): Boolean kNN and top-k spatial keyword queries over
road networks via per-keyword ρ-approximate network Voronoi diagrams,
on-demand inverted heaps, and pluggable network-distance oracles —
together with every substrate and baseline the paper evaluates against.

Quick start::

    from repro import KSpin
    from repro.api import Query
    from repro.distance import ContractionHierarchy
    from repro.graph import perturbed_grid_network
    from repro.text import KeywordDataset

    graph = perturbed_grid_network(20, 20, seed=1)
    dataset = KeywordDataset({5: ["thai", "restaurant"], 17: ["hotel"]})
    kspin = KSpin(graph, dataset, oracle=ContractionHierarchy(graph))
    kspin.execute(Query(vertex=0, keywords=("thai",), k=1)).pairs()
"""

from repro.core.framework import KSpin
from repro.core.query_processor import QueryStats
from repro.graph.road_network import RoadNetwork
from repro.text.documents import KeywordDataset

__version__ = "1.0.0"

__all__ = ["KSpin", "KeywordDataset", "QueryStats", "RoadNetwork", "__version__"]
