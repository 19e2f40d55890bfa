#!/usr/bin/env python3
"""Road-trip planner: a mixed boolean filter and a batch along a route.

A driver crosses the map and wants the 3 nearest POIs matching
*coffee AND (parking OR drive-through)* — a mixed conjunctive /
disjunctive filter (paper §2 remark) — and, at every vertex of the
route, the 3 nearest coffee POIs.  The route query is one
``execute_many`` batch; consecutive vertices with the same answer are
folded into segments, so the navigation system only re-renders at
segment boundaries.

Run:  python examples/road_trip_planner.py
"""

from itertools import groupby

from repro.api import Query
from repro.core import KSpin
from repro.datasets import load_dataset
from repro.distance import ContractionHierarchy
from repro.lowerbound import AltLowerBounder


def main() -> None:
    dataset = load_dataset("ME-S")
    graph, keywords = dataset.graph, dataset.keywords
    oracle = ContractionHierarchy(graph)
    kspin = KSpin(
        graph, keywords, oracle=oracle,
        lower_bounder=AltLowerBounder(graph, num_landmarks=16),
    )

    popular = [kw for kw, _ in keywords.frequency_rank()[:3]]
    coffee, parking, drive_through = popular
    print(f"World: {dataset.name} ({graph.num_vertices} vertices, "
          f"{keywords.num_objects} POIs)")
    print(f"Filter: {coffee} AND ({parking} OR {drive_through})\n")

    # --- One-shot mixed boolean query at the trip start. ---------------
    start, goal = 0, graph.num_vertices - 1
    groups = [[coffee], [parking, drive_through]]
    at_start = kspin.boolean_bknn(start, 3, groups)
    print(f"Best 3 matches at the start (vertex {start}):")
    for obj, distance in at_start:
        print(f"  vertex {obj} at distance {distance:.2f} "
              f"doc={sorted(keywords.document(obj))[:4]}")

    # --- BkNN at every vertex of the route, as one batch. --------------
    route = oracle.shortest_path(start, goal)
    print(f"\nRoute: {len(route)} vertices from {start} to {goal}")
    answers = kspin.execute_many([Query(v, (coffee,), k=3) for v in route])
    nearest = [frozenset(obj for obj, _ in answer.pairs()) for answer in answers]
    segments = [(objects, len(list(run))) for objects, run in groupby(nearest)]
    print(f"Result changes only {len(segments)} times along the route:")
    position = 0
    for objects, length in segments[:8]:
        span = f"vertices {position}..{position + length - 1}"
        listed = ", ".join(str(o) for o in sorted(objects))
        print(f"  {span:22s} -> nearest {coffee!r} POIs: {listed}")
        position += length
    if len(segments) > 8:
        print(f"  ... and {len(segments) - 8} more segments")

    print(f"\nA naive per-vertex refresh would re-render {len(route)} times; "
          f"segment boundaries re-render {len(segments)} times "
          f"({len(segments) / len(route):.0%} of the work).")


if __name__ == "__main__":
    main()
