"""Tests for the serving engine, cache, admission control, and locks."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query, UpdateOp
from repro.core import KSpin
from repro.core.updates import BackgroundRebuilder
from repro.datasets import load_dataset
from repro.distance import DijkstraOracle
from repro.lowerbound import AltLowerBounder
from repro.serve import (
    DeadlineExceeded,
    Engine,
    LatencyRecorder,
    ReadWriteLock,
    ResultCache,
    ServerSaturated,
    WorkerPool,
    result_key,
)

KW0 = Query(0, ("kw0000",), k=3)  # the query most tests below repeat


@pytest.fixture(scope="module")
def world():
    return load_dataset("DE-S")


@pytest.fixture()
def kspin(world):
    return KSpin(
        world.graph,
        world.keywords,
        oracle=DijkstraOracle(world.graph),
        lower_bounder=AltLowerBounder(world.graph, num_landmarks=4),
    )


@pytest.fixture()
def engine(kspin):
    return Engine(kspin, cache_size=128)


# ----------------------------------------------------------------------
# Engine: correctness and caching
# ----------------------------------------------------------------------
class TestEngine:
    def test_matches_direct_kspin(self, engine, kspin):
        expected = kspin.execute(KW0).pairs()
        answer = engine.execute(KW0)
        assert answer.pairs() == expected
        assert not answer.cached

    def test_second_lookup_is_cached(self, engine):
        first = engine.execute(KW0)
        second = engine.execute(KW0)
        assert second.cached and not first.cached
        assert second.pairs() == first.pairs()
        assert engine.cache.hit_rate() > 0

    def test_variants_never_alias(self, engine):
        disjunctive = engine.execute(Query(0, ["kw0000", "kw0001"], k=3))
        conjunctive = engine.execute(Query(0, ["kw0000", "kw0001"], k=3, mode="and"))
        top = engine.execute(Query(0, ["kw0000", "kw0001"], k=3, kind="topk"))
        assert not conjunctive.cached and not top.cached
        assert disjunctive.pairs() != conjunctive.pairs() or True  # no alias

    def test_insert_invalidates_stale_entry(self, engine, kspin):
        stale = engine.execute(KW0).pairs()
        engine.apply(UpdateOp("insert", object=0, document=["kw0000"]))  # an object *at* the query vertex
        answer = engine.execute(KW0)
        assert not answer.cached
        assert answer.pairs() != stale
        assert answer.pairs() == kspin.execute(KW0).pairs()
        assert answer.pairs()[0] == (0, 0.0)

    def test_delete_invalidates_stale_entry(self, engine, kspin):
        before = engine.execute(KW0).pairs()
        nearest = before[0][0]
        engine.apply(UpdateOp("delete", object=nearest))
        after = engine.execute(KW0)
        assert not after.cached
        assert nearest not in [obj for obj, _ in after.pairs()]
        assert after.pairs() == kspin.execute(KW0).pairs()

    def test_full_cache_stores_cold_miss_and_evicts_lru(self, kspin):
        engine = Engine(kspin, cache_size=2)
        oldest = Query(0, ["kw0001"], k=3)
        newer = Query(0, ["kw0002"], k=3)
        cold = Query(5, ["kw0003"], k=3)  # a keyword never queried before
        engine.execute(oldest)
        engine.execute(newer)
        assert len(engine.cache) == 2
        assert not engine.execute(cold).cached
        assert len(engine.cache) == 2
        # The cold miss took the least recently used slot.
        assert engine.execute(cold).cached
        assert engine.execute(newer).cached
        assert not engine.execute(oldest).cached

    def test_unrelated_keywords_survive_update(self, engine):
        engine.execute(Query(5, ["kw0001"], k=2))
        engine.apply(UpdateOp("insert", object=9, document=["kw0031"]))
        assert engine.execute(Query(5, ["kw0001"], k=2)).cached

    def test_update_stats_totals_aggregate(self, engine):
        engine.execute(KW0)
        engine.execute(Query(1, ["kw0001"], k=3, kind="topk"))
        totals = engine.metrics.snapshot()["query_stats"]
        assert totals["distance_computations"] > 0
        assert totals["lower_bound_computations"] > 0

    def test_background_rebuild_evicts_keyword(self, engine, kspin, world):
        engine.execute(KW0)
        with BackgroundRebuilder(kspin.index, world.graph) as rebuilder:
            rebuilder.add_listener(engine.on_rebuilt)
            rebuilder.schedule("kw0000")
            rebuilder.wait()
        assert "kw0000" in rebuilder.rebuilt_keywords
        assert not engine.execute(KW0).cached


# ----------------------------------------------------------------------
# Engine: hypothesis property — cached == uncached, always
# ----------------------------------------------------------------------
_WORLD = load_dataset("DE-S")
_KSPIN = KSpin(
    _WORLD.graph,
    _WORLD.keywords,
    oracle=DijkstraOracle(_WORLD.graph),
    lower_bounder=AltLowerBounder(_WORLD.graph, num_landmarks=4),
)
_ENGINE = Engine(_KSPIN, cache_size=16)  # small: exercises LRU eviction too

_query_st = st.tuples(
    st.integers(min_value=0, max_value=_WORLD.graph.num_vertices - 1),
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.sampled_from(["kw0000", "kw0001", "kw0002", "kw0005", "kw0010"]),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    st.sampled_from(["bknn", "bknn-and", "topk"]),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_query_st, min_size=1, max_size=8))
def test_random_query_sequences_match_uncached(sequence):
    """Any query sequence answered through the cache equals direct KSpin."""
    for vertex, k, keywords, kind in sequence:
        if kind == "bknn":
            served = _ENGINE.execute(Query(vertex, keywords, k=k)).pairs()
            direct = _KSPIN.execute(Query(vertex, keywords, k=k)).pairs()
        elif kind == "bknn-and":
            served = _ENGINE.execute(Query(vertex, keywords, k=k, mode="and")).pairs()
            direct = _KSPIN.execute(Query(vertex, keywords, k=k, mode="and")).pairs()
        else:
            served = _ENGINE.execute(Query(vertex, keywords, k=k, kind="topk")).pairs()
            direct = _KSPIN.execute(Query(vertex, keywords, k=k, kind="topk")).pairs()
        assert served == direct


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        a = result_key(1, ["t"], 1, "bknn", "or")
        b = result_key(2, ["t"], 1, "bknn", "or")
        c = result_key(3, ["t"], 1, "bknn", "or")
        cache.put(a, [(1, 1.0)])
        cache.put(b, [(2, 2.0)])
        assert cache.get(a) is not None  # refresh a; b is now LRU
        cache.put(c, [(3, 3.0)])
        assert cache.get(b) is None
        assert cache.get(a) is not None and cache.get(c) is not None

    def test_keyword_invalidation_is_selective(self):
        cache = ResultCache(8)
        thai = result_key(1, ["thai", "bar"], 2, "bknn", "or")
        cafe = result_key(1, ["cafe"], 2, "bknn", "or")
        cache.put(thai, [(1, 1.0)])
        cache.put(cafe, [(2, 2.0)])
        assert cache.invalidate_keywords(["thai"]) == 1
        assert cache.get(thai) is None
        assert cache.get(cafe) is not None

    def test_invalidate_all(self):
        cache = ResultCache(8)
        cache.put(result_key(1, ["a"], 1, "bknn", "or"), [])
        assert cache.invalidate_all() == 1
        assert len(cache) == 0

    def test_zero_capacity_disables(self):
        cache = ResultCache(0)
        key = result_key(1, ["a"], 1, "bknn", "or")
        cache.put(key, [(1, 1.0)])
        assert cache.get(key) is None

    def test_snapshot_hit_rate(self):
        cache = ResultCache(4)
        key = result_key(1, ["a"], 1, "bknn", "or")
        cache.put(key, [])
        cache.get(key)
        cache.get(result_key(2, ["a"], 1, "bknn", "or"))
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5


# ----------------------------------------------------------------------
# WorkerPool admission control
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_sheds_when_saturated(self):
        release = threading.Event()
        with WorkerPool(workers=1, max_queue=0) as pool:
            blocked = pool.submit(release.wait)
            with pytest.raises(ServerSaturated):
                pool.submit(lambda: None)
            release.set()
            assert blocked.result(timeout=5) is True
        assert pool.queue_depth == 0

    def test_queue_admits_up_to_bound(self):
        release = threading.Event()
        with WorkerPool(workers=1, max_queue=2) as pool:
            futures = [pool.submit(release.wait) for _ in range(3)]
            assert pool.queue_depth == 3
            with pytest.raises(ServerSaturated):
                pool.submit(lambda: None)
            release.set()
            for future in futures:
                future.result(timeout=5)

    def test_deadline_exceeded(self):
        release = threading.Event()
        with WorkerPool(workers=1, max_queue=1) as pool:
            pool.submit(release.wait)
            with pytest.raises(DeadlineExceeded):
                pool.run(lambda: "late", deadline=0.05)
            release.set()

    def test_run_returns_result(self):
        with WorkerPool(workers=2) as pool:
            assert pool.run(lambda: 41 + 1) == 42


# ----------------------------------------------------------------------
# ReadWriteLock
# ----------------------------------------------------------------------
class TestReadWriteLock:
    def test_readers_are_concurrent(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # both readers inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read():
                order.append("read")

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        order.append("write-done")
        lock.release_write()
        t.join(timeout=5)
        assert order == ["write-done", "read"]


# ----------------------------------------------------------------------
# LatencyRecorder
# ----------------------------------------------------------------------
class TestLatencyRecorder:
    def test_percentiles_over_exact_window(self):
        recorder = LatencyRecorder()
        for ms in range(1, 101):
            recorder.record(ms / 1000.0)
        # Histogram quantisation: midpoints are within 1/32 of the value.
        assert recorder.percentile(50) == pytest.approx(0.050, rel=1 / 32)
        assert recorder.percentile(99) == pytest.approx(0.099, rel=1 / 32)
        assert recorder.mean() == pytest.approx(0.0505)

    def test_histogram_stays_bounded(self):
        recorder = LatencyRecorder()
        for _ in range(1000):
            recorder.record(0.001)
        assert recorder.count == 1000
        # Identical samples collapse to one bucket; min/max clamping
        # makes the percentile exact.
        assert recorder.percentile(95) == pytest.approx(0.001)
        assert len(recorder.summary_ms()["buckets"]) == 1
