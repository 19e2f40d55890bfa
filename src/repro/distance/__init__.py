"""Network Distance Module: pluggable exact point-to-point oracles."""

from repro.distance.base import DistanceOracle, verify_oracle
from repro.distance.ch import ContractionHierarchy
from repro.distance.composite import CompositeOracle
from repro.distance.dijkstra_oracle import DijkstraOracle
from repro.distance.gtree import GTree, GTreeNode
from repro.distance.hub_labeling import HubLabeling, importance_order

__all__ = [
    "CompositeOracle",
    "ContractionHierarchy",
    "DijkstraOracle",
    "DistanceOracle",
    "GTree",
    "GTreeNode",
    "HubLabeling",
    "importance_order",
    "verify_oracle",
]
