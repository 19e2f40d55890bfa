"""The one search loop: every query shape, both seedings, under writes.

``QueryProcessor._search`` answers OR, AND, CNF, top-k, top-k over a
CNF filter and the weighted-sum scorer; ``KSpin.apply`` is the one write
path.  The property below holds every combination against brute force
over a shadow copy of the documents (IDF frozen at build time, object
impacts from the live document — the documented update semantics).
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Query, UpdateOp
from repro.core import (
    BooleanExpression,
    KSpin,
    brute_force_bknn,
    brute_force_boolean_bknn,
    results_equivalent,
)
from repro.distance import DijkstraOracle, HubLabeling
from repro.graph import dijkstra_all, perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.obs.trace import Tracer
from repro.text import KeywordDataset
from repro.text.relevance import weighted_sum_score

from tests.test_kspin_queries import make_dataset

ALPHA = 0.4
MAX_DISTANCE = 1000.0


def ranked_reference(graph, documents, relevance, q, k, groups, score):
    """Exhaustive scoring of every shadow document matching ``groups``."""
    expression = BooleanExpression(groups)
    impacts = relevance.query_impacts(expression.keywords())
    distances = dijkstra_all(graph, q)
    scored = sorted(
        (score(distances[o], tr), o)
        for o, doc in documents.items()
        if expression.matches(doc.__contains__)
        and distances[o] < float("inf")
        and (tr := relevance.relevance_from_document(doc, impacts)) > 0
    )
    return [(o, s) for s, o in scored[:k]]


def check_every_shape(graph, documents, kspin, rng):
    """One query of each shape the loop serves, against brute force."""
    shadow = KeywordDataset(documents)
    vocabulary = sorted({t for doc in documents.values() for t in doc})
    q = rng.randrange(graph.num_vertices)
    k = rng.randint(1, 4)
    keywords = rng.sample(vocabulary, min(len(vocabulary), rng.randint(1, 3)))
    groups = [
        rng.sample(vocabulary, min(len(vocabulary), rng.randint(1, 2)))
        for _ in range(rng.randint(2, 3))
    ]
    expression = BooleanExpression(groups)

    def weighted_distance(d, tr):
        return d / tr

    def weighted_sum(d, tr):
        return weighted_sum_score(d, tr, ALPHA, MAX_DISTANCE)

    cases = {
        "or": (
            kspin.execute(Query(q, keywords, k=k)).pairs(),
            brute_force_bknn(graph, shadow, q, k, keywords),
        ),
        "and": (
            kspin.execute(Query(q, keywords, k=k, mode="and")).pairs(),
            brute_force_bknn(graph, shadow, q, k, keywords, conjunctive=True),
        ),
        "cnf": (
            kspin.boolean_bknn(q, k, groups),
            brute_force_boolean_bknn(graph, shadow, q, k, expression),
        ),
        "topk": (
            kspin.execute(Query(q, keywords, k=k, kind="topk")).pairs(),
            ranked_reference(
                graph, documents, kspin.relevance, q, k, [keywords], weighted_distance
            ),
        ),
        "topk-cnf": (
            kspin.boolean_top_k(q, k, groups),
            ranked_reference(
                graph, documents, kspin.relevance, q, k, groups, weighted_distance
            ),
        ),
        "weighted-sum": (
            kspin.top_k_weighted_sum(
                q, k, keywords, alpha=ALPHA, max_distance=MAX_DISTANCE
            ),
            ranked_reference(
                graph, documents, kspin.relevance, q, k, [keywords], weighted_sum
            ),
        ),
    }
    for shape, (actual, expected) in cases.items():
        assert results_equivalent(actual, expected), (shape, q, k, keywords, groups)


def write_a_little(kspin, documents, free, rng):
    """insert + delete + add_keyword + remove_keyword, mirrored in the shadow."""
    obj = free.pop()
    documents[obj] = {"kw0": 1, "kw1": rng.randint(1, 3)}
    kspin.apply(UpdateOp("insert", object=obj, document=documents[obj]))
    victim = rng.choice(sorted(documents))
    del documents[victim]
    kspin.apply(UpdateOp("delete", object=victim))
    obj = rng.choice(sorted(documents))
    keyword = rng.choice(["kw0", "kw2", "fresh"])
    documents[obj][keyword] = 2
    kspin.apply(UpdateOp("add_keyword", object=obj, keyword=keyword, frequency=2))
    wordy = sorted(o for o, doc in documents.items() if len(doc) > 1)
    if wordy:
        obj = rng.choice(wordy)
        keyword = rng.choice(sorted(documents[obj]))
        del documents[obj][keyword]
        kspin.apply(UpdateOp("remove_keyword", object=obj, keyword=keyword))


def check_under_writes(seed, seedings):
    rng = random.Random(seed)
    graph = perturbed_grid_network(6, 6, seed=seed % 11)
    dataset = make_dataset(graph, seed=seed, object_fraction=0.4, vocabulary=5)
    for seeding in seedings:
        documents = {o: dict(dataset.document(o)) for o in dataset.objects()}
        free = [v for v in graph.vertices() if v not in documents]
        kspin = KSpin(
            graph,
            dataset,
            oracle=HubLabeling(graph),
            lower_bounder=AltLowerBounder(graph, num_landmarks=4, seed=seed),
            rho=3,
            rebuild_threshold=1,
            seeding=seeding,
        )
        check_every_shape(graph, documents, kspin, rng)  # clean
        for _ in range(2):
            write_a_little(kspin, documents, free, rng)
            check_every_shape(graph, documents, kspin, rng)  # lazy writes pending
        assert kspin.apply(UpdateOp("rebuild"))["rebuilt"]
        check_every_shape(graph, documents, kspin, rng)  # rebuilt


# 931: a lazy insert located its cell without the tombstoned generator
# that owns it.  145, 1475: a generator bordering the new cell, itself
# unaffected, never surfaced the insert.  2094: a MINKEY lowered by lazy
# expansion left another heap's queued pseudo bound too high.
@given(seed=st.integers(min_value=0, max_value=10**6))
@example(seed=931)
@example(seed=145)
@example(seed=1475)
@example(seed=2094)
@settings(max_examples=15, deadline=None)
def test_every_shape_equals_brute_force_under_writes(seed):
    check_under_writes(seed, ("nvd", "labels"))


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_label_seeding_equals_brute_force_under_writes(seed):
    """Label seeding on its own rng path (above it runs second, after
    the NVD arm has advanced the generator)."""
    check_under_writes(seed, ("labels",))


@pytest.fixture(scope="module")
def world():
    graph = perturbed_grid_network(8, 8, seed=41)
    dataset = make_dataset(graph, seed=41, object_fraction=0.4, vocabulary=8)
    kspin = KSpin(
        graph,
        dataset,
        oracle=DijkstraOracle(graph),
        lower_bounder=AltLowerBounder(graph, num_landmarks=6),
        rho=3,
    )
    return graph, dataset, kspin


def test_and_or_are_the_cnf_loop(world):
    """AND is CNF of singletons and OR is CNF of one group: the same
    answers and the same work, counter for counter."""
    graph, dataset, kspin = world
    vocabulary = [t for t, _ in dataset.frequency_rank()]
    rng = random.Random(6)
    for _ in range(25):
        q = rng.randrange(graph.num_vertices)
        keywords = rng.sample(vocabulary, rng.randint(1, 3))
        for mode, groups in (("and", [[t] for t in keywords]), ("or", [keywords])):
            plain = kspin.execute(Query(q, keywords, k=4, mode=mode))
            via_cnf = kspin.boolean_bknn(q, 4, groups)
            assert via_cnf == plain.pairs()
            assert kspin.last_stats.to_dict() == plain.stats


def test_cnf_query_is_traced_like_any_other(world):
    _, dataset, kspin = world
    frequent = [t for t, _ in dataset.frequency_rank()[:3]]
    tracer = Tracer(enabled=True)
    with tracer.trace("test") as root:
        kspin.boolean_bknn(0, 3, [frequent[:1], frequent[1:]])
    searches = [s for s in root.walk() if s.name == "processor.search"]
    assert [s.attrs["algorithm"] for s in searches] == ["bknn-cnf"]
    assert searches[0].timers["oracle.distance"][0] == (
        kspin.last_stats.distance_computations
    )


def test_topk_sees_an_insert_above_the_build_time_max_impact():
    """Regression (open since PR 14): every built document spreads its
    weight over three keywords, so the build-time maximum impact of "a"
    is well below the 1.0 a later single-keyword insert carries; the
    pseudo lower bound divided by the stale maximum and stopped early."""
    rng = random.Random(0)
    graph = perturbed_grid_network(8, 8, seed=128)
    vertices = list(graph.vertices())
    rng.shuffle(vertices)
    documents = {v: {"a": 1, "b": rng.randint(1, 3), "c": 1} for v in vertices[:25]}
    kspin = KSpin(
        graph,
        KeywordDataset(documents),
        oracle=DijkstraOracle(graph),
        lower_bounder=AltLowerBounder(graph, num_landmarks=4),
        rho=3,
    )
    stale = kspin.relevance.max_impact("a")
    documents[vertices[25]] = {"a": 1}
    kspin.apply(UpdateOp("insert", object=vertices[25], document={"a": 1}))
    assert stale < kspin.relevance.max_impact("a") == 1.0
    expected = ranked_reference(
        graph, documents, kspin.relevance, 18, 1, [["a", "b"]], lambda d, tr: d / tr
    )
    assert expected[0][0] == vertices[25]
    actual = kspin.execute(Query(18, ("a", "b"), k=1, kind="topk")).pairs()
    assert results_equivalent(actual, expected)
