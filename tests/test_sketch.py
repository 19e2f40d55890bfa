"""Property tests for the bounded-memory summaries (repro.sketch).

* **Lossy counting** carries an error bound — ``est <= true <= est +
  floor(eps * N)`` — and a merge law: merging per-worker counters keeps
  that bound over the pooled stream.  Hypothesis drives both over
  arbitrary key streams and splits.
* **Leaky buckets** admit the configured burst, refuse with a
  ``Retry-After``, drain at the configured rate and isolate clients.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import ClientRateLimiter, LeakyBucket, LossyCounter


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
