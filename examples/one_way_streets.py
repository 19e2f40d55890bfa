#!/usr/bin/env python3
"""One-way streets: K-SPIN on a directed road network.

The paper's model assumes undirected edges for exposition; this example
runs the directed extension: a city grid where 40% of streets are
one-way, indexed with directed APX-NVDs and directed ALT bounds, served
by the *unchanged* core query processor.  It demonstrates how
directionality changes answers — the nearest cafe "as the car drives"
can differ sharply from the undirected nearest.

Run:  python examples/one_way_streets.py
"""

import random

from repro.api import Query
from repro.core import KSpin
from repro.directed import (
    DirectedAltLowerBounder,
    DirectedKSpin,
    with_one_way_streets,
)
from repro.distance import DijkstraOracle
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.text import KeywordDataset


def main() -> None:
    base = perturbed_grid_network(12, 12, seed=5)
    directed = with_one_way_streets(base, fraction=0.4, seed=5)
    one_way = sum(
        1 for u, v, _ in directed.edges() if directed.edge_weight(v, u) is None
    )
    print(f"City grid: {base.num_vertices} vertices, {base.num_edges} streets, "
          f"{one_way} one-way arcs; strongly connected: "
          f"{directed.is_strongly_connected()}")

    rng = random.Random(5)
    cafes = sorted(rng.sample(range(base.num_vertices), 12))
    dataset = KeywordDataset(
        {v: ["cafe"] + (["drive-through"] if i % 3 == 0 else [])
         for i, v in enumerate(cafes)}
    )

    undirected = KSpin(
        base,
        dataset,
        oracle=DijkstraOracle(base),
        lower_bounder=AltLowerBounder(base, num_landmarks=8),
    )
    directed_kspin = DirectedKSpin(
        directed,
        dataset,
        lower_bounder=DirectedAltLowerBounder(directed, num_landmarks=8),
    )

    print("\nNearest cafe, pretending streets are two-way vs. as-the-car-drives:")
    print(f"{'from':>6s}  {'undirected':>22s}  {'directed':>22s}")
    differences = 0
    samples = rng.sample(range(base.num_vertices), 10)
    for q in samples:
        u = undirected.execute(Query(q, ["cafe"], k=1)).pairs()[0]
        d = directed_kspin.execute(Query(q, ["cafe"], k=1)).pairs()[0]
        marker = "  <- differs" if (u[0] != d[0] or abs(u[1] - d[1]) > 1e-9) else ""
        differences += bool(marker)
        print(f"{q:>6d}  vertex {u[0]:>4d} at {u[1]:6.2f}  "
              f"vertex {d[0]:>4d} at {d[1]:6.2f}{marker}")
    print(f"\n{differences}/10 query locations get a different answer once "
          f"one-way streets are respected.")

    q = samples[0]
    top = directed_kspin.execute(
        Query(q, ["cafe", "drive-through"], k=3, kind="topk")
    ).pairs()
    print(f"\nDirected top-3 for 'cafe drive-through' from vertex {q}:")
    for obj, score in top:
        print(f"  vertex {obj}: score {score:.3f} "
              f"doc={sorted(dataset.document(obj))}")


if __name__ == "__main__":
    main()
