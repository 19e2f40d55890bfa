#!/usr/bin/env python3
"""Live updates: POIs opening, closing, and changing their listings.

Demonstrates the paper's §6.2 update machinery on a running index:
businesses open (object insertion via Theorem-2 affected sets), close
(tombstone deletion), and edit their descriptions (keyword add/remove) —
all without rebuilding, while every query stays exact.  Ends with the
amortised rebuild that folds the lazy updates in.

Run:  python examples/live_updates.py
"""

from repro.api import Query, UpdateOp
from repro.core import KSpin, brute_force_bknn
from repro.datasets import load_dataset
from repro.distance import ContractionHierarchy
from repro.lowerbound import AltLowerBounder
from repro.text import KeywordDataset


def main() -> None:
    dataset = load_dataset("ME-S")
    graph, keywords = dataset.graph, dataset.keywords
    kspin = KSpin(
        graph,
        keywords,
        oracle=ContractionHierarchy(graph),
        lower_bounder=AltLowerBounder(graph, num_landmarks=12),
        rebuild_threshold=8,
    )
    popular = [kw for kw, _ in keywords.frequency_rank()[:2]]
    q = graph.num_vertices // 2
    print(f"World: {dataset.name}, query vertex {q}, keywords {popular}")

    nearby = Query(q, popular, k=5)
    before = kspin.execute(nearby).pairs()
    print("\nTop-5 nearest matches before any update:")
    for obj, distance in before:
        print(f"  vertex {obj} at distance {distance:.3f}")

    # --- A new business opens right next to the query location. -------
    new_vertex = next(
        v for v, _ in graph.neighbors(q) if not keywords.is_object(v)
    )
    print(f"\n* A new POI opens at vertex {new_vertex} with {popular[:1]}")
    kspin.apply(UpdateOp("insert", object=new_vertex, document=popular[:1]))
    after_insert = kspin.execute(nearby).pairs()
    assert after_insert[0][0] == new_vertex, "the new neighbor should now win"
    print(f"  nearest match is now vertex {after_insert[0][0]} "
          f"at distance {after_insert[0][1]:.3f} (lazy insert, no rebuild)")

    # --- The old winner closes down. -----------------------------------
    closing = before[0][0]
    print(f"\n* The previous winner (vertex {closing}) closes down")
    kspin.apply(UpdateOp("delete", object=closing))
    after_delete = kspin.execute(nearby).pairs()
    assert closing not in {o for o, _ in after_delete}
    print(f"  it no longer appears; top result: vertex {after_delete[0][0]}")

    # --- A listing edits its description. -------------------------------
    editor = after_delete[1][0]
    print(f"\n* Vertex {editor} adds the keyword 'rooftop-bar'")
    kspin.apply(UpdateOp("add_keyword", object=editor, keyword="rooftop-bar"))
    rooftop = kspin.execute(Query(q, ["rooftop-bar"], k=1)).pairs()
    assert rooftop and rooftop[0][0] == editor
    print(f"  a query for 'rooftop-bar' now finds it at distance "
          f"{rooftop[0][1]:.3f}")

    # --- Verify exactness against brute force over the live state. -----
    live_documents = {}
    universe = set(keywords.objects()) | {new_vertex}
    for v in universe:
        doc = {
            t: f
            for t, f in kspin.index.document(v).items()
            if kspin.index.has_keyword(v, t)
        }
        if doc:
            live_documents[v] = doc
    reference = KeywordDataset(live_documents)
    expected = brute_force_bknn(graph, reference, q, 5, popular)
    actual = kspin.execute(nearby).pairs()
    assert [o for o, _ in actual] == [o for o, _ in expected], (actual, expected)
    print("\nExactness check vs brute force over the live state: OK")

    # --- Amortised rebuild. ---------------------------------------------
    pending = kspin.index.pending_updates()
    print(f"\nPending lazy updates per keyword: {pending}")
    rebuilt = kspin.apply(UpdateOp("rebuild"))["rebuilt"]
    print(f"Diagrams rebuilt (threshold {kspin.index.rebuild_threshold}): "
          f"{rebuilt or 'none needed yet'}")
    final = kspin.execute(nearby).pairs()
    assert [o for o, _ in final] == [o for o, _ in actual]
    print("Results unchanged after rebuild — lazy and rebuilt state agree.")


if __name__ == "__main__":
    main()
