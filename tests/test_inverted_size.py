"""``|inv(t)|`` is asked of the index: the one count ranking and routing trust.

``KeywordSeparatedIndex.inverted_size`` is exact and O(1), and it is the
only source of keyword counts: ``QueryProcessor`` ranks AND/CNF groups
by it (whether reached through ``KSpin`` or ``Engine``) and the cluster
router prunes on it.  The tests below hold that number against a shadow
document set through every kind of write, hold the router's pruning
against brute force, and pin the behaviour an approximate summary could
not give: an emptied keyword is seen as empty by the very next query.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query, UpdateOp
from repro.core import KSpin, brute_force_bknn, results_equivalent
from repro.core.query_processor import QueryStats
from repro.distance import DijkstraOracle
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.serve import ClusterCoordinator, Engine
from repro.serve.placement import ReplicateRouter
from repro.text import KeywordDataset

VOCABULARY = ("a", "b", "c", "d", "fresh")
NEVER_INDEXED = "zz-missing"


def build(graph, documents, **options):
    return KSpin(
        graph,
        KeywordDataset(documents),
        oracle=DijkstraOracle(graph),
        lower_bounder=AltLowerBounder(graph, num_landmarks=4),
        rho=3,
        **options,
    )


# ----------------------------------------------------------------------
# The count itself, through every kind of write
# ----------------------------------------------------------------------
def apply_step(kspin, documents, step):
    """Interpret one drawn ``(op, a, b)`` against index and shadow alike."""
    op, a, b = step
    vertices = kspin.graph.num_vertices
    if op == "rebuild":
        kspin.apply(UpdateOp("rebuild"))
        return
    if op == "insert":
        free = [v for v in range(vertices) if v not in documents]
        obj = free[a % len(free)]
        words = [t for i, t in enumerate(VOCABULARY) if b >> i & 1] or ["a"]
        documents[obj] = {t: 1 for t in words}
        kspin.apply(UpdateOp("insert", object=obj, document=documents[obj]))
        return
    if not documents:
        return
    objects = sorted(documents)
    obj = objects[a % len(objects)]
    if op == "delete":
        del documents[obj]
        kspin.apply(UpdateOp("delete", object=obj))
    elif op == "add_keyword":
        keyword = VOCABULARY[b % len(VOCABULARY)]
        documents[obj][keyword] = 1
        kspin.apply(UpdateOp("add_keyword", object=obj, keyword=keyword))
    elif op == "remove_keyword":
        remove_keyword(kspin, documents, obj, sorted(documents[obj])[b % len(documents[obj])])
    else:  # drain: take a keyword's last object away, however many it has
        keyword = VOCABULARY[b % len(VOCABULARY)]
        for carrier in [o for o in objects if keyword in documents[o]]:
            if a % 2:
                del documents[carrier]
                kspin.apply(UpdateOp("delete", object=carrier))
            else:
                remove_keyword(kspin, documents, carrier, keyword)


def remove_keyword(kspin, documents, obj, keyword):
    kspin.apply(UpdateOp("remove_keyword", object=obj, keyword=keyword))
    del documents[obj][keyword]
    if not documents[obj]:
        del documents[obj]  # carries nothing: no longer an object


def check_counts(kspin, documents):
    index = kspin.index
    for keyword in {*VOCABULARY, NEVER_INDEXED, *index.keywords()}:
        nvd = index.nvd(keyword)
        walked = len(nvd.live_objects()) if nvd is not None else 0
        shadow = sum(keyword in doc for doc in documents.values())
        assert index.inverted_size(keyword) == walked == shadow, keyword


def check_routers(kspin, documents, queries):
    """A pruned query is one whose un-pruned answer is empty."""
    shadow = KeywordDataset(documents) if documents else None
    routers = [
        ReplicateRouter(workers, kspin.index.inverted_size)
        for workers in (2, 3)
    ]
    for query in queries:
        unpruned = kspin.execute(query).pairs()
        if shadow is not None and query.kind == "bknn":
            truth = brute_force_bknn(
                kspin.graph, shadow, query.vertex, query.k, query.keywords,
                conjunctive=query.conjunctive,
            )
            assert results_equivalent(unpruned, truth), query
        for router in routers:
            target = router.plan(query, [0] * router.num_workers)
            if target is None:
                assert unpruned == [], (router.num_workers, query)
            else:
                assert 0 <= target < router.num_workers


steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "delete", "add_keyword", "remove_keyword", "drain", "rebuild"]
        ),
        st.integers(0, 1000),
        st.integers(0, 1000),
    ),
    max_size=10,
)


@given(seed=st.integers(0, 50), steps=steps)
@settings(max_examples=30, deadline=None)
def test_count_and_pruning_hold_through_every_write(seed, steps):
    graph = perturbed_grid_network(5, 5, seed=seed % 7)
    documents = {
        v: {VOCABULARY[(v + seed + i) % 4]: 1 for i in range(1 + v % 3)}
        for v in range(0, graph.num_vertices, 2)
    }
    kspin = build(graph, documents, rebuild_threshold=1)
    vertex = seed % graph.num_vertices
    queries = [
        Query(vertex, ("a", "b"), k=3),
        Query(vertex, ("a", "b"), k=3, mode="and"),
        Query(vertex, ("c", "fresh", NEVER_INDEXED), k=2),
        Query(vertex, ("d", "d"), k=2),
        Query(vertex, ("fresh", "fresh"), k=2, kind="topk"),
        Query(vertex, ("a", "c", "d"), k=3, kind="topk"),
    ]
    check_counts(kspin, documents)
    check_routers(kspin, documents, queries)
    for step in steps:
        apply_step(kspin, documents, step)
        check_counts(kspin, documents)
        check_routers(kspin, documents, queries)


# ----------------------------------------------------------------------
# One number, one plan: Engine and KSpin rank alike
# ----------------------------------------------------------------------
def test_engine_and_kspin_plan_and_queries_alike():
    """AND over keywords one object apart in size: an estimate may rank
    them either way, the exact count ranks them one way for everybody."""
    graph = perturbed_grid_network(12, 12, seed=5)
    documents = {v: {} for v in graph.vertices()}
    keywords = [f"kw{i:02d}" for i in range(24)]
    for i, keyword in enumerate(keywords):
        size = 14 + i % 8  # 14..21 carriers, three keywords of each size
        for j in range(size):
            documents[(i * 37 + j * 11) % graph.num_vertices][keyword] = 1
    documents = {v: doc for v, doc in documents.items() if doc}
    kspin = build(graph, documents)
    engine = Engine(kspin, cache_size=0)
    compared = 0
    for t, u in itertools.combinations(keywords, 2):
        if abs(kspin.index.inverted_size(t) - kspin.index.inverted_size(u)) > 1:
            continue
        for vertex in (0, 77):
            query = Query(vertex, (t, u), k=3, mode="and")
            direct = kspin.execute(query)
            served = engine.execute(query)
            assert served.pairs() == direct.pairs()
            assert served.stats == direct.stats, query
            compared += 1
    assert compared >= 150


# ----------------------------------------------------------------------
# Regression: an emptied keyword is empty for the very next query
# ----------------------------------------------------------------------
@pytest.fixture()
def emptied_world():
    """``t`` on ten objects, ``u`` on three (one shared with ``t``)."""
    graph = perturbed_grid_network(6, 6, seed=9)
    documents = {v: {"t": 1} for v in range(10)}
    documents[5]["u"] = 1
    documents[20] = {"u": 1}
    documents[21] = {"u": 1, "w": 1}
    return graph, documents, build(graph, documents)


AND_TU = Query(30, ("t", "u"), k=3, mode="and")
ONLY_T = Query(30, ("t",), k=3)


def test_cluster_sees_an_emptied_keyword_at_once(emptied_world):
    graph, documents, kspin = emptied_world
    with ClusterCoordinator(
        kspin, num_workers=2, cache_size=0, supervise=False
    ) as cluster:
        def counters():
            snap = cluster.metrics_snapshot()["cluster"]
            return snap["dispatches"], snap["short_circuits"]

        assert cluster.execute(AND_TU).pairs()  # object 5 carries both
        for obj in range(10):  # far fewer writes than any refresh period
            cluster.apply(UpdateOp("delete", object=obj))
            del documents[obj]
        dispatches, short_circuits = counters()
        assert cluster.execute(AND_TU).pairs() == []
        assert cluster.execute(ONLY_T).pairs() == []
        assert counters() == (dispatches, short_circuits + 2)

        # Revived by an object that never carried it: dispatched again.
        documents[33] = {"t": 1, "u": 1}
        cluster.apply(UpdateOp("insert", object=33, document=documents[33]))
        shadow = KeywordDataset(documents)
        for query in (AND_TU, ONLY_T):
            expected = brute_force_bknn(
                graph, shadow, query.vertex, query.k, query.keywords,
                conjunctive=query.conjunctive,
            )
            assert expected
            assert results_equivalent(cluster.execute(query).pairs(), expected)
        assert counters() == (dispatches + 2, short_circuits + 2)


def test_engine_opens_no_heap_for_an_emptied_keyword(emptied_world):
    graph, documents, kspin = emptied_world
    engine = Engine(kspin, cache_size=0)
    assert engine.execute(AND_TU).stats["heaps_created"] == 1
    for obj in range(10):
        engine.apply(UpdateOp("delete", object=obj))
        del documents[obj]
    # "u" still has two carriers and is now the rarer *live* keyword; a
    # lingering count for "t" would rank it first and scan its heap.
    emptied = engine.execute(AND_TU)
    assert emptied.pairs() == []
    assert emptied.stats == QueryStats().to_dict()

    documents[33] = {"t": 1, "u": 1}
    engine.apply(UpdateOp("insert", object=33, document=documents[33]))
    expected = brute_force_bknn(
        graph, KeywordDataset(documents), 30, 3, ("t", "u"), conjunctive=True
    )
    revived = engine.execute(AND_TU)
    assert results_equivalent(revived.pairs(), expected)
    assert revived.stats["heaps_created"] == 1
