"""Property tests for the probabilistic-sketch subsystem (repro.sketch).

Every structure carries two contracts the serving stack leans on:

* an **error bound** — Bloom filters never produce false negatives (the
  property shard skipping rests on), HyperLogLog never reports zero for
  a non-empty set (the property conjunctive short-circuits rest on),
  lossy counting obeys ``est <= true <= est + floor(eps * N)``;
* a **merge law** — merging per-worker sketches must equal building one
  sketch over the pooled stream (bit-identical for Bloom and HLL,
  bound-preserving for the lossy counter).

Hypothesis drives both over arbitrary key streams and splits.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import (
    BloomFilter,
    ClientRateLimiter,
    HyperLogLog,
    IndexSketches,
    LeakyBucket,
    LossyCounter,
    stable_hash,
    stable_hash64,
)

keys = st.text(min_size=1, max_size=12)
key_lists = st.lists(keys, max_size=60)


# ----------------------------------------------------------------------
# Stable hashing
# ----------------------------------------------------------------------
class TestStableHash:
    def test_process_stable_values(self):
        # Pinned: these feed pickled filters and journal replay, so the
        # values may never drift between processes or versions.
        assert stable_hash("kw0001") == stable_hash("kw0001")
        assert stable_hash64("kw0001", salt="hll") == stable_hash64(
            "kw0001", salt="hll"
        )
        assert stable_hash64("a", salt="x") != stable_hash64("a", salt="y")

    def test_matches_legacy_placement_hash(self):
        # placement.shard_of delegated here; old journal entries must
        # still route identically.
        from zlib import crc32

        for key in ("kw0001", "thai", "zz"):
            assert stable_hash(key) == crc32(key.encode())

    @given(keys)
    def test_hash64_is_64_bit(self, key):
        assert 0 <= stable_hash64(key) < 2**64


# ----------------------------------------------------------------------
# Bloom filters
# ----------------------------------------------------------------------
class TestBloomFilter:
    @given(key_lists)
    @settings(max_examples=50)
    def test_no_false_negatives(self, items):
        bloom = BloomFilter.with_capacity(max(16, len(items)), fp_rate=0.01)
        bloom.update(items)
        assert all(item in bloom for item in items)

    @given(key_lists, key_lists)
    @settings(max_examples=50)
    def test_merge_equals_pooled_build(self, left, right):
        a = BloomFilter.with_capacity(64, fp_rate=0.01)
        b = BloomFilter.with_capacity(64, fp_rate=0.01)
        a.update(left)
        b.update(right)
        pooled = BloomFilter.with_capacity(64, fp_rate=0.01)
        pooled.update(left)
        pooled.update(right)
        merged = a.merge(b)
        assert merged == pooled  # bit-identical, not just equivalent
        assert merged.to_dict()["bits"] == pooled.to_dict()["bits"]

    def test_merge_rejects_mismatched_geometry(self):
        a = BloomFilter(num_bits=64, num_hashes=3)
        b = BloomFilter(num_bits=128, num_hashes=3)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_measured_fp_within_twice_bound(self):
        bloom = BloomFilter.with_capacity(1000, fp_rate=0.02)
        bloom.update(f"present-{i}" for i in range(1000))
        probes = 5000
        hits = sum(1 for i in range(probes) if f"absent-{i}" in bloom)
        assert hits / probes <= 2 * 0.02

    @given(key_lists)
    @settings(max_examples=25)
    def test_serialization_round_trips(self, items):
        bloom = BloomFilter.with_capacity(64, fp_rate=0.01)
        bloom.update(items)
        assert BloomFilter.from_dict(bloom.to_dict()) == bloom
        assert pickle.loads(pickle.dumps(bloom)) == bloom


# ----------------------------------------------------------------------
# HyperLogLog
# ----------------------------------------------------------------------
class TestHyperLogLog:
    @given(key_lists)
    @settings(max_examples=50)
    def test_no_false_zero(self, items):
        hll = HyperLogLog(precision=10)
        hll.update(items)
        if items:
            assert hll.cardinality() > 0
            assert not hll.is_empty()
        else:
            assert hll.cardinality() == 0
            assert hll.is_empty()

    @given(key_lists, key_lists)
    @settings(max_examples=50)
    def test_merge_equals_pooled_build(self, left, right):
        a = HyperLogLog(precision=10)
        b = HyperLogLog(precision=10)
        a.update(left)
        b.update(right)
        pooled = HyperLogLog(precision=10)
        pooled.update(left)
        pooled.update(right)
        merged = a.merge(b)
        # Register-identical: merge is max per register and every item
        # lands in the same register regardless of which sketch saw it.
        assert merged.to_dict() == pooled.to_dict()
        assert merged.cardinality() == pooled.cardinality()

    def test_estimate_within_five_standard_errors(self):
        for true in (50, 500, 5000):
            hll = HyperLogLog(precision=12)
            for i in range(true):
                hll.add(f"item-{true}-{i}")
            error = abs(hll.cardinality() - true) / true
            assert error <= 5 * hll.relative_error(), (true, error)

    def test_duplicates_do_not_inflate(self):
        hll = HyperLogLog(precision=10)
        for _ in range(100):
            hll.add("same")
        assert hll.cardinality() == 1

    @given(key_lists)
    @settings(max_examples=25)
    def test_serialization_round_trips(self, items):
        hll = HyperLogLog(precision=8)
        hll.update(items)
        restored = HyperLogLog.from_dict(hll.to_dict())
        assert restored.to_dict() == hll.to_dict()
        assert pickle.loads(pickle.dumps(hll)).to_dict() == hll.to_dict()


# ----------------------------------------------------------------------
# Lossy counting
# ----------------------------------------------------------------------
class TestLossyCounter:
    @given(st.lists(st.sampled_from("abcdefgh"), max_size=400))
    @settings(max_examples=50)
    def test_error_bound_contract(self, stream):
        counter = LossyCounter(epsilon=0.05)
        true: dict[str, int] = {}
        for item in stream:
            counter.add(item)
            true[item] = true.get(item, 0) + 1
        bound = counter.error_bound()
        for item, count in true.items():
            estimate = counter.estimate(item)
            assert estimate <= count <= estimate + bound

    @given(
        st.lists(st.sampled_from("abcdefgh"), max_size=200),
        st.lists(st.sampled_from("abcdefgh"), max_size=200),
    )
    @settings(max_examples=50)
    def test_merge_preserves_bound_over_pooled_stream(self, left, right):
        a = LossyCounter(epsilon=0.05)
        b = LossyCounter(epsilon=0.05)
        true: dict[str, int] = {}
        for item in left:
            a.add(item)
            true[item] = true.get(item, 0) + 1
        for item in right:
            b.add(item)
            true[item] = true.get(item, 0) + 1
        merged = a.merge(b)
        assert merged.observed == len(left) + len(right)
        bound = merged.error_bound()
        for item, count in true.items():
            estimate = merged.estimate(item)
            assert estimate <= count <= estimate + bound

    def test_top_ranks_heavy_hitters_first(self):
        counter = LossyCounter(epsilon=0.001)
        for item, weight in (("hot", 50), ("warm", 10), ("cold", 1)):
            counter.add(item, weight=weight)
        assert [item for item, _ in counter.top(2)] == ["hot", "warm"]

    def test_unseen_item_estimates_zero(self):
        assert LossyCounter().estimate("never") == 0

    def test_serialization_round_trips(self):
        counter = LossyCounter(epsilon=0.01)
        counter.update("aabbbcccc")
        restored = LossyCounter.from_dict(counter.to_dict())
        assert restored.to_dict() == counter.to_dict()
        assert pickle.loads(pickle.dumps(counter)).to_dict() == counter.to_dict()


# ----------------------------------------------------------------------
# Leaky buckets
# ----------------------------------------------------------------------
class TestLeakyBucket:
    def test_burst_then_refusal_with_retry_after(self):
        clock = FakeClock()
        bucket = LeakyBucket(rate=1.0, capacity=2.0, clock=clock)
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        retry = bucket.try_acquire()
        assert retry is not None and retry > 0
        clock.advance(retry)
        assert bucket.try_acquire() is None

    def test_drains_at_configured_rate(self):
        clock = FakeClock()
        bucket = LeakyBucket(rate=2.0, capacity=4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_acquire() is None
        clock.advance(1.0)  # drains 2 tokens
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is not None

    def test_limiter_isolates_clients(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(rate=1.0, capacity=1.0, clock=clock)
        assert limiter.check("greedy") is None
        assert limiter.check("greedy") is not None  # over budget
        assert limiter.check("polite") is None  # unaffected
        snap = limiter.snapshot()
        assert snap["allowed"] == 2 and snap["limited"] == 1

    def test_limiter_bounds_tracked_clients(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(
            rate=1.0, capacity=1.0, clock=clock, max_clients=4
        )
        for i in range(20):
            limiter.check(f"client-{i}")
            clock.advance(0.01)
        assert limiter.tracked_clients() <= 4


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# The registry (per-index composite)
# ----------------------------------------------------------------------
class TestIndexSketches:
    def _registry(self) -> IndexSketches:
        sketches = IndexSketches(num_shards=3, fp_rate=0.01, capacity=64)
        sketches.add_keyword("thai", [1, 2, 3])
        sketches.add_keyword("grocer", [4, 5])
        sketches.add_keyword("bakery", [5])
        return sketches

    def test_membership_and_cardinality(self):
        sketches = self._registry()
        assert sketches.may_contain("thai")
        assert sketches.cardinality("thai") == 3
        assert sketches.cardinality("absent") == 0
        assert not sketches.may_contain("zz-absent-keyword")

    def test_selectivity_is_rho(self):
        sketches = self._registry()
        total = sketches.total_objects()
        assert total > 0
        assert sketches.selectivity("thai") == pytest.approx(
            sketches.cardinality("thai") / total
        )

    def test_update_folding_and_refresh_counter(self):
        sketches = self._registry()
        sketches.apply_update("insert", ["pizza"], 9)
        assert sketches.may_contain("pizza")
        assert sketches.cardinality("pizza") == 1
        before = sketches.stale_deletes
        sketches.apply_update("delete", [], 9)
        assert sketches.stale_deletes == before + 1

    def test_refresh_rebuilds_from_live_index(self):
        class FakeNVD:
            def __init__(self, objs):
                self._objs = objs

            def live_objects(self):
                return self._objs

        class FakeIndex:
            def keywords(self):
                return ("thai",)

            def nvd(self, keyword):
                return FakeNVD([1, 2]) if keyword == "thai" else None

        sketches = self._registry()
        sketches.refresh(FakeIndex())
        assert sketches.may_contain("thai")
        assert not sketches.may_contain("grocer")  # gone from the index
        assert sketches.cardinality("thai") == 2
        assert sketches.stale_deletes == 0

    def test_merge_combines_workers(self):
        a = IndexSketches(num_shards=2, capacity=64)
        b = IndexSketches(num_shards=2, capacity=64)
        a.add_keyword("thai", [1, 2])
        b.add_keyword("grocer", [3])
        merged = a.merge(b)
        assert merged.may_contain("thai") and merged.may_contain("grocer")
        assert merged.cardinality("thai") == 2
        assert merged.cardinality("grocer") == 1

    def test_pickle_round_trip(self):
        sketches = self._registry()
        restored = pickle.loads(pickle.dumps(sketches))
        assert restored.may_contain("thai")
        assert restored.cardinality("thai") == 3
        assert restored.to_dict() == sketches.to_dict()

    def test_snapshot_shape(self):
        snap = self._registry().snapshot()
        assert snap["num_shards"] == 3
        assert len(snap["shards"]) == 3
        for shard in snap["shards"]:
            assert 0.0 <= shard["fill_ratio"] <= 1.0
