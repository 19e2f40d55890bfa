"""End-to-end pipeline: build -> query -> update -> rebuild -> persist.

One scenario over a mid-size world, asserting exactness
against brute force at every stage — the closest thing to a production
smoke test in the suite.
"""

import random

import pytest

from repro.api import Query, UpdateOp
from repro.core import (
    BackgroundRebuilder,
    BooleanExpression,
    KSpin,
    brute_force_bknn,
    brute_force_boolean_bknn,
    brute_force_top_k,
    results_equivalent,
)
from repro.distance import ContractionHierarchy, HubLabeling
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.persist import load_kspin, save_kspin
from repro.text import KeywordDataset, RelevanceModel

from tests.test_kspin_queries import make_dataset, popular_keywords


@pytest.fixture(scope="module")
def pipeline_world():
    graph = perturbed_grid_network(10, 10, seed=123)
    dataset = make_dataset(graph, seed=123, object_fraction=0.25, vocabulary=20)
    return graph, dataset


def test_full_pipeline(pipeline_world, tmp_path):
    graph, dataset = pipeline_world
    rng = random.Random(99)

    # --- Stage 1: build with CH, verify all query types. ---------------
    alt = AltLowerBounder(graph, num_landmarks=12)
    ch = ContractionHierarchy(graph)
    kspin = KSpin(
        graph, dataset, oracle=ch, lower_bounder=alt, rho=4, rebuild_threshold=3
    )
    relevance = RelevanceModel(dataset)
    keywords = popular_keywords(dataset, 3)
    for _ in range(5):
        q = rng.randrange(graph.num_vertices)
        assert results_equivalent(
            kspin.execute(Query(q, keywords[:2], k=5)).pairs(),
            brute_force_bknn(graph, dataset, q, 5, keywords[:2]),
        )
        assert results_equivalent(
            kspin.execute(Query(q, keywords[:2], k=5, mode="and")).pairs(),
            brute_force_bknn(graph, dataset, q, 5, keywords[:2], conjunctive=True),
        )
        assert results_equivalent(
            kspin.execute(Query(q, keywords, k=5, kind="topk")).pairs(),
            brute_force_top_k(graph, dataset, relevance, q, 5, keywords),
        )

    # --- Stage 2: a burst of updates, queries stay exact. ---------------
    free = [v for v in graph.vertices() if not dataset.is_object(v)]
    opened = free[:4]
    for v in opened:
        kspin.apply(UpdateOp("insert", object=v, document=[keywords[0], "new-chain"]))
    closed = dataset.inverted_list(keywords[0])[0]
    kspin.apply(UpdateOp("delete", object=closed))
    live_documents = {}
    for v in list(dataset.objects()) + opened:
        doc = {
            t: f
            for t, f in kspin.index.document(v).items()
            if kspin.index.has_keyword(v, t)
        }
        if doc:
            live_documents[v] = doc
    reference = KeywordDataset(live_documents)
    q = rng.randrange(graph.num_vertices)
    assert results_equivalent(
        kspin.execute(Query(q, [keywords[0]], k=6)).pairs(),
        brute_force_bknn(graph, reference, q, 6, [keywords[0]]),
    )
    assert kspin.execute(Query(opened[0], ["new-chain"], k=1)).pairs()[0][0] == opened[0]

    # --- Stage 3: background rebuild, identical answers afterwards. -----
    before = kspin.execute(Query(q, [keywords[0]], k=6)).pairs()
    with BackgroundRebuilder(kspin.index, graph) as rebuilder:
        scheduled = rebuilder.schedule_pending()
        rebuilder.wait()
    assert keywords[0] in scheduled
    after = kspin.execute(Query(q, [keywords[0]], k=6)).pairs()
    assert results_equivalent(before, after)

    # --- Stage 4: persist, reload, swap oracle semantics intact. --------
    path = str(tmp_path / "pipeline.kspin")
    save_kspin(kspin, path)
    reloaded = load_kspin(path)
    assert results_equivalent(reloaded.execute(Query(q, [keywords[0]], k=6)).pairs(), after)

    # --- Stage 5: one batch along a route on the reloaded index. --------
    route = ch.shortest_path(0, graph.num_vertices - 1)
    batch = [Query(v, [keywords[0]], k=3) for v in route]
    along = reloaded.execute_many(batch)
    assert len(along) == len(route)
    groups = [[keywords[0]], ["new-chain", keywords[1]]]
    expression = BooleanExpression(groups)
    for v, answer in zip(route, along):
        assert results_equivalent(
            answer.pairs(), brute_force_bknn(graph, reference, v, 3, [keywords[0]])
        )
        assert results_equivalent(
            reloaded.boolean_bknn(v, 3, groups),
            brute_force_boolean_bknn(graph, reference, v, 3, expression),
        )


def test_pipeline_oracle_swap_after_reload(pipeline_world, tmp_path):
    """A reloaded index keeps the flexibility claim: rebuild the
    processor around a different oracle and answers do not change."""
    graph, dataset = pipeline_world
    alt = AltLowerBounder(graph, num_landmarks=8)
    kspin = KSpin(
        graph, dataset, oracle=ContractionHierarchy(graph), lower_bounder=alt
    )
    keywords = popular_keywords(dataset, 2)
    expected = kspin.execute(Query(7, keywords, k=5, kind="topk")).pairs()

    path = str(tmp_path / "swap.kspin")
    save_kspin(kspin, path)
    reloaded = load_kspin(path)

    from repro.core.heap_generator import HeapGenerator
    from repro.core.query_processor import QueryProcessor

    order = sorted(graph.vertices(), key=lambda v: -reloaded.oracle.rank[v])
    hub = HubLabeling(graph, order=order)
    reloaded.oracle = hub
    reloaded.processor = QueryProcessor(
        reloaded.graph,
        reloaded.index,
        reloaded.relevance,
        hub,
        HeapGenerator(reloaded.lower_bounder),
    )
    assert results_equivalent(
        reloaded.execute(Query(7, keywords, k=5, kind="topk")).pairs(), expected
    )
