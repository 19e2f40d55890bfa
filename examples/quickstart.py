#!/usr/bin/env python3
"""Quickstart: K-SPIN on the paper's Figure 1 example.

Recreates the running example of the paper — an 8-object road network
with unit edge weights — and runs the exact queries the introduction
walks through:

* the Boolean 1NN for "restaurant" OR "takeaway"   (answer: o8)
* the Boolean 1NN for "thai" AND "restaurant"      (answer: o6)
* a top-1 weighted-distance query.

Run:  python examples/quickstart.py
"""

from repro import KSpin, KeywordDataset, RoadNetwork
from repro.api import Query
from repro.distance import ContractionHierarchy
from repro.lowerbound import AltLowerBounder


def figure_1_world() -> tuple[RoadNetwork, KeywordDataset, int]:
    """A small unit-weight road network shaped like the paper's Figure 1.

    Vertex 0 is the query location q; objects sit on vertices 1..8 and
    carry the documents of o1..o8.
    """
    graph = RoadNetwork(16)
    # A 4x4 unit-weight grid: vertex r*4+c.
    for r in range(4):
        for c in range(4):
            v = r * 4 + c
            graph.set_coordinates(v, c, r)
            if c + 1 < 4:
                graph.add_edge(v, v + 1, 1.0)
            if r + 1 < 4:
                graph.add_edge(v, v + 4, 1.0)
    documents = {
        1: ["italian", "restaurant"],        # o1
        2: ["takeaway", "thai"],             # o2
        3: ["grocer"],                       # o3
        4: ["bakery", "grocer"],             # o4
        5: ["thai", "restaurant"],           # o5
        6: ["thai", "restaurant"],           # o6
        7: ["thai", "grocer"],               # o7
        8: ["italian", "takeaway", "restaurant"],  # o8
    }
    # Scatter the objects so distances differentiate them; q at vertex 0.
    placement = {1: 5, 2: 1, 3: 10, 4: 11, 5: 6, 6: 2, 7: 14, 8: 4}
    return graph, KeywordDataset(
        {placement[o]: doc for o, doc in documents.items()}
    ), 0


def main() -> None:
    graph, dataset, q = figure_1_world()
    kspin = KSpin(
        graph,
        dataset,
        oracle=ContractionHierarchy(graph),
        lower_bounder=AltLowerBounder(graph, num_landmarks=4),
        rho=3,
    )

    print("K-SPIN quickstart on the paper's Figure 1 world")
    print(f"  road network: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges; query vertex q = {q}")
    print(f"  objects: {len(dataset.objects())}, "
          f"keywords: {dataset.num_keywords}")

    disjunctive = kspin.execute(Query(q, ["restaurant", "takeaway"], k=1)).pairs()
    print("\nBoolean 1NN, 'restaurant' OR 'takeaway':")
    for obj, distance in disjunctive:
        print(f"  vertex {obj} at network distance {distance:.0f} "
              f"with document {dataset.document(obj)}")

    conjunctive = kspin.execute(Query(q, ["thai", "restaurant"], k=1, mode="and")).pairs()
    print("\nBoolean 1NN, 'thai' AND 'restaurant':")
    for obj, distance in conjunctive:
        print(f"  vertex {obj} at network distance {distance:.0f} "
              f"with document {dataset.document(obj)}")

    top = kspin.execute(Query(q, ["thai", "restaurant"], k=3, kind="topk")).pairs()
    print("\nTop-3 by weighted distance d(q,o)/TR(psi,o):")
    for obj, score in top:
        print(f"  vertex {obj}: score {score:.3f}, "
              f"document {dataset.document(obj)}")

    stats = kspin.last_stats
    print(f"\nLast query cost: {stats.distance_computations} exact network "
          f"distances, {stats.lower_bound_computations} lower bounds, "
          f"{stats.heaps_created} on-demand inverted heaps")


if __name__ == "__main__":
    main()
