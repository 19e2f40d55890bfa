"""Batch execution surface: types, oracle vector API, engine equivalence.

The batch redesign's contract is *result identity*: for any engine,
``execute_many(qs)`` must yield the same hits, per query and in order,
as ``[execute(q) for q in qs]`` — whatever amortisation (one lock, one
cache sweep, one SSSP per distinct source, one pipe round trip) happens
underneath.  Cluster-side equivalence lives in ``test_cluster.py``; the
HTTP envelope in ``test_serve_http.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BatchResult,
    Query,
    QueryBatch,
    QueryResult,
    execute_batch,
)
from repro.core import KSpin
from repro.datasets import load_dataset
from repro.distance import DijkstraOracle
from repro.lowerbound import AltLowerBounder
from repro.serve import Engine
from repro.serve.ratelimit import ClientRateLimiter


@pytest.fixture(scope="module")
def world():
    return load_dataset("DE-S")


@pytest.fixture(scope="module")
def kspin(world):
    return KSpin(
        world.graph,
        world.keywords,
        oracle=DijkstraOracle(world.graph),
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
    )


# ----------------------------------------------------------------------
# QueryBatch / BatchResult value types
# ----------------------------------------------------------------------
class TestBatchTypes:
    def test_batch_round_trips_through_dict(self):
        batch = QueryBatch(queries=(
            Query(vertex=1, keywords=("a",), k=2),
            Query(vertex=2, keywords=("b", "c"), k=1, kind="topk"),
        ))
        assert QueryBatch.from_dict(batch.to_dict()) == batch
        assert len(batch) == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            QueryBatch(queries=())

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError):
            QueryBatch.from_dict({"queries": "not-a-list"})

    def test_result_items_are_exactly_one_of(self):
        ok = QueryResult(hits=())
        with pytest.raises(ValueError):
            BatchResult(results=(ok,), errors=({"code": "x", "message": ""},))
        with pytest.raises(ValueError):
            BatchResult(results=(None,), errors=(None,))

    def test_result_round_trips_through_dict(self):
        mixed = BatchResult(
            results=(QueryResult(hits=()), None),
            errors=(None, {"code": "bad_request", "message": "nope"}),
        )
        assert mixed.ok_count == 1
        payload = mixed.to_dict()
        assert payload["count"] == 2 and payload["ok_count"] == 1
        assert BatchResult.from_dict(payload) == mixed

    def test_execute_batch_isolates_bad_items(self, kspin):
        engine = Engine(kspin, cache_size=0)
        good = Query(vertex=0, keywords=("kw0000",), k=2)
        # conjunctive top-k is definitionally unsupported (paper Eq. 1)
        bad = Query(vertex=0, keywords=("kw0000", "kw0001"), k=2,
                    kind="topk", mode="and")
        outcome = execute_batch(engine, QueryBatch(queries=(good, bad, good)))
        assert outcome.ok_count == 2
        assert outcome.results[0] is not None
        assert outcome.errors[1] is not None
        assert outcome.errors[1]["code"] == "bad_request"
        assert outcome.results[2].hits == outcome.results[0].hits


# ----------------------------------------------------------------------
# Oracle vector API: distances_many / knn_many
# ----------------------------------------------------------------------
class TestOracleBatchApi:
    def test_distances_many_matches_scalar(self, world):
        oracle = DijkstraOracle(world.graph)
        pairs = [(0, 5), (3, 3), (7, 1), (0, 9), (5, 0)]
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        batched = oracle.distances_many(sources, targets)
        scalar = [oracle.distance(s, t) for s, t in pairs]
        assert batched == scalar

    def test_distances_many_length_mismatch(self, world):
        oracle = DijkstraOracle(world.graph)
        with pytest.raises(ValueError):
            oracle.distances_many([0, 1], [2])

    def test_knn_many_matches_per_source_sort(self, world):
        oracle = DijkstraOracle(world.graph)
        sources = [0, 3, 7]
        candidates = [1, 4, 6, 9]
        ranked = oracle.knn_many(sources, candidates, k=2)
        assert len(ranked) == len(sources)
        for source, neighbours in zip(sources, ranked):
            expected = sorted(
                ((c, oracle.distance(source, c)) for c in candidates),
                key=lambda cd: (cd[1], cd[0]),
            )[:2]
            assert neighbours == expected

    def test_alt_lower_bounds_many_matches_scalar(self, world):
        bounder = AltLowerBounder(world.graph, num_landmarks=4)
        sources = [0, 2, 5, 5, 9]
        targets = [5, 2, 0, 9, 9]
        batched = bounder.lower_bounds_many(sources, targets)
        scalar = [bounder.lower_bound(s, t) for s, t in zip(sources, targets)]
        assert batched == pytest.approx(scalar)


# ----------------------------------------------------------------------
# Engine: execute_many ≡ sequential execute, under cache mixing
# ----------------------------------------------------------------------
_WORLD = load_dataset("DE-S")
_KSPIN = KSpin(
    _WORLD.graph,
    _WORLD.keywords,
    oracle=DijkstraOracle(_WORLD.graph),
    lower_bounder=AltLowerBounder(_WORLD.graph, num_landmarks=4),
)

_query_st = st.builds(
    Query,
    vertex=st.integers(min_value=0, max_value=_WORLD.graph.num_vertices - 1),
    keywords=st.lists(
        st.sampled_from(["kw0000", "kw0001", "kw0002", "kw0005", "kw0010"]),
        min_size=1,
        max_size=3,
        unique=True,
    ).map(tuple),
    k=st.integers(min_value=1, max_value=5),
    kind=st.sampled_from(["bknn", "topk"]),
    mode=st.just("or"),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(_query_st, min_size=1, max_size=10))
def test_engine_execute_many_matches_sequential(batch):
    """Batched execution is hit-identical to one-at-a-time execution.

    Two engines over the same index: one answers the batch in one
    ``execute_many`` call (shared cache sweep, one read lock, duplicate
    collapsing), the other answers sequentially.  Warm caches on both
    sides (by replaying a prefix first) so batches mix hits and misses.
    """
    batched_engine = Engine(_KSPIN, cache_size=8)
    sequential_engine = Engine(_KSPIN, cache_size=8)
    warm = batch[: len(batch) // 2]
    batched_engine.execute_many(warm)
    for query in warm:
        sequential_engine.execute(query)
    many = batched_engine.execute_many(batch)
    one_by_one = [sequential_engine.execute(query) for query in batch]
    assert [r.hits for r in many] == [r.hits for r in one_by_one]


def test_engine_duplicate_queries_in_one_batch(kspin):
    engine = Engine(kspin, cache_size=32)
    query = Query(vertex=0, keywords=("kw0000",), k=3)
    results = engine.execute_many([query, query, query])
    assert len(results) == 3
    assert results[0].hits == results[1].hits == results[2].hits
    assert not results[0].cached
    assert results[1].cached and results[2].cached  # collapsed in-batch


def test_engine_empty_batch(kspin):
    assert Engine(kspin, cache_size=0).execute_many([]) == []


# ----------------------------------------------------------------------
# Rate limiter: a batch charges its size
# ----------------------------------------------------------------------
class TestBatchRateLimitCost:
    def test_batch_cost_consumes_batch_size_tokens(self):
        clock = [0.0]
        limiter = ClientRateLimiter(
            rate=1.0, capacity=10.0, clock=lambda: clock[0]
        )
        assert limiter.check("c", cost=8.0) is None  # 8 of 10 used
        retry = limiter.check("c", cost=8.0)  # 16 > 10: must wait
        assert retry is not None
        # 6 tokens over capacity at 1 token/sec drain
        assert retry == pytest.approx(6.0)
        clock[0] += 6.0
        assert limiter.check("c", cost=8.0) is None

    def test_batching_cannot_outrun_single_queries(self):
        clock = [0.0]
        single = ClientRateLimiter(rate=5.0, capacity=20.0,
                                   clock=lambda: clock[0])
        batched = ClientRateLimiter(rate=5.0, capacity=20.0,
                                    clock=lambda: clock[0])
        admitted_single = sum(
            1 for _ in range(40) if single.check("c") is None
        )
        admitted_batched = sum(
            8 for _ in range(5) if batched.check("c", cost=8.0) is None
        )
        assert admitted_batched <= admitted_single

    def test_oversized_batch_always_limited(self):
        limiter = ClientRateLimiter(rate=100.0, capacity=4.0)
        assert limiter.check("c", cost=32.0) is not None

    def test_nonpositive_cost_rejected(self):
        limiter = ClientRateLimiter()
        with pytest.raises(ValueError):
            limiter.check("c", cost=0.0)
