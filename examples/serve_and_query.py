"""Serve a K-SPIN index over HTTP and query it like a client would.

Boots the Figure-1 world behind ``repro.serve``'s HTTP front end (on an
ephemeral port, in-process), then talks to it purely over HTTP/JSON —
exactly what ``python -m repro serve`` + ``curl`` does across processes:

1. Boolean kNN and top-k queries, with the second lookup served from
   the result cache.
2. A live update through ``POST /update``: the affected cache entries
   are evicted and the next answer reflects the new object.
3. The ``/metrics`` view: latency percentiles, cache hit rate, and the
   paper's §5.1 cost counters aggregated over everything served.
"""

from repro.core import KSpin
from repro.distance import DijkstraOracle
from repro.graph import RoadNetwork
from repro.lowerbound import AltLowerBounder
from repro.serve import Engine, QueryServer, ServeClient
from repro.text import KeywordDataset


def build_world() -> KSpin:
    """The paper's Figure-1 4x4 grid with its POIs."""
    graph = RoadNetwork(16)
    for row in range(4):
        for col in range(4):
            vertex = row * 4 + col
            graph.set_coordinates(vertex, col, row)
            if col + 1 < 4:
                graph.add_edge(vertex, vertex + 1, 1.0)
            if row + 1 < 4:
                graph.add_edge(vertex, vertex + 4, 1.0)
    dataset = KeywordDataset(
        {
            5: ["italian", "restaurant"],
            1: ["takeaway", "thai"],
            10: ["grocer"],
            11: ["bakery", "grocer"],
            6: ["thai", "restaurant"],
            2: ["thai", "restaurant"],
            14: ["thai", "grocer"],
            4: ["italian", "takeaway", "restaurant"],
        }
    )
    return KSpin(
        graph,
        dataset,
        oracle=DijkstraOracle(graph),
        lower_bounder=AltLowerBounder(graph, num_landmarks=4),
        rho=3,
    )


def main() -> None:
    engine = Engine(build_world(), cache_size=256)
    with QueryServer(engine, port=0, workers=4).start_background() as server:
        client = ServeClient(server.url)
        print(f"Server up at {server.url}")
        print(f"Health: {client.healthz()}")

        nearest = {"vertex": 0, "k": 2, "keywords": ["thai", "restaurant"]}
        first = client.query(nearest)
        again = client.query(nearest)
        print(f"\nBkNN thai OR restaurant from v0: {first['results']}")
        print(f"  cached on first request: {first['cached']}, "
              f"on second: {again['cached']}")

        top = client.query({**nearest, "k": 3, "kind": "topk"})
        print(f"Top-3 by weighted distance:      {top['results']}")

        update = client.update(op="insert", object=0, document=["thai", "pop-up"])
        print(f"\nInserted a thai pop-up at v0 "
              f"(evicted {update['cache_evicted']} cache entries)")
        fresh = client.query(nearest)
        print(f"BkNN now finds it:               {fresh['results']}")
        assert fresh["results"][0] == [0, 0.0], "update did not take effect"

        metrics = client.metrics()
        print(f"\nServed {metrics['requests_total']} requests; "
              f"p50 {metrics['latency']['p50_ms']:.2f} ms, "
              f"cache hit rate {metrics['cache']['hit_rate']:.0%}")
        print(f"Aggregated cost counters: {metrics['query_stats']}")


if __name__ == "__main__":
    main()
