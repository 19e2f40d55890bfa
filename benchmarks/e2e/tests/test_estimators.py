"""The quiet pass, best-of-segments, and the closed loop's sampling."""

import pytest

import estimators
from estimators import Phase


def _phase(latencies, weights=None):
    """Back-to-back operations with the given latencies."""
    phase = Phase()
    now = 0.0
    for i, latency in enumerate(latencies):
        now += latency
        phase.add(now, latency, 1 if weights is None else weights[i])
    return phase


def test_quiet_pass_takes_each_operation_at_its_best_whole_pass():
    # A block of three operations, two whole passes and a partial third.
    phase = _phase([1.0, 5.0, 2.0, 3.0, 4.0, 1.5, 0.1])
    assert estimators.quiet_pass(phase, 3) == [1.0, 4.0, 1.5]
    with pytest.raises(ValueError):
        estimators.quiet_pass(_phase([1.0, 2.0]), 3)


def test_a_stall_that_misses_one_pass_does_not_reach_the_summary():
    quiet = [0.010, 0.020, 0.030, 0.040] * 5
    stalled = list(quiet)
    for position in (1, 2, 6, 11, 16, 17):  # bursts, never a whole column
        stalled[position] *= 20
    assert estimators.quiet_pass(_phase(stalled), 4) == [0.010, 0.020, 0.030, 0.040]
    summary = estimators.summarise_passes(_phase(stalled), 4)
    assert summary.throughput == pytest.approx(4 / 0.1)
    assert summary.median == pytest.approx(0.025)
    assert summary.tail == pytest.approx(0.040)
    assert len(summary.rates) == 5 and max(summary.rates) == pytest.approx(40.0)
    # A cost paid on every pass does show.
    slower = [latency * (3 if i % 4 == 2 else 1) for i, latency in enumerate(quiet)]
    assert estimators.summarise_passes(_phase(slower), 4).throughput == pytest.approx(4 / 0.16)


def test_updates_take_time_but_are_neither_answers_nor_latency_samples():
    # read, write, read, write: two passes.
    phase = _phase([0.1, 0.9, 0.2, 0.8] * 2, weights=[1, 0, 1, 0] * 2)
    summary = estimators.summarise_passes(phase, 4)
    assert summary.throughput == pytest.approx(2 / 2.0)
    assert summary.median == pytest.approx(0.15)
    assert summary.query_samples == 2


def test_segments_are_five_equal_runs():
    assert estimators.segment_bounds(52) == [(0, 10), (10, 20), (20, 30), (30, 40), (40, 50)]
    with pytest.raises(ValueError):
        estimators.segment_bounds(4)


def test_without_repeats_the_best_of_five_segments_is_taken():
    latencies = []
    for rate in (100, 80, 125, 90, 110):
        latencies += [1.0 / rate] * 10
    summary = estimators.summarise_segments(_phase(latencies))
    assert summary.rates == pytest.approx([100, 80, 125, 90, 110])
    assert summary.throughput == pytest.approx(125)
    assert summary.median == pytest.approx(1 / 125)
    assert summary.tail == pytest.approx(1 / 125)
    # A batch of 32 counts 32.
    batches = estimators.summarise_segments(_phase([0.1] * 50, weights=[32] * 50))
    assert batches.throughput == pytest.approx(320)


def test_merged_connections_are_segmented_in_completion_order():
    first, second = Phase(), Phase()
    for i in range(1, 26):
        first.add(i * 0.2, 0.2)
        second.add(i * 0.2 + 0.1, 0.2)
    merged = Phase()
    merged.extend(first)
    merged.extend(second)
    ordered = merged.in_completion_order()
    assert ordered.ends == sorted(merged.ends)
    # Two connections, one request in flight each: 10 a second.
    assert estimators.summarise_segments(ordered).throughput == pytest.approx(10, rel=0.15)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert estimators.percentile(values, 0.95) == 95.0
    assert estimators.percentile(values, 0.5) == 50.0
    assert estimators.percentile([3.0], 0.95) == 3.0
    with pytest.raises(ValueError):
        estimators.percentile([], 0.95)


def test_closed_loop_keeps_a_sample_and_every_failure():
    def call(op):
        if op == 7:
            raise ValueError("boom")
        return op * 2

    phase, kept = estimators.closed_loop(call, range(120), 60.0, lambda op: 1, keep_offset=3)
    assert len(phase.ends) == 120 and phase.ends == sorted(phase.ends)
    sampled = [position for position, _, result in kept if not isinstance(result, Exception)]
    assert sampled == [47, 97]
    failures = [(op, result) for _, op, result in kept if isinstance(result, Exception)]
    assert len(failures) == 1 and failures[0][0] == 7
    # The loop stops at the deadline even when operations remain.
    phase, _ = estimators.closed_loop(call, iter(int, 1), 0.05, lambda op: 1)
    assert 0.04 <= phase.ends[-1] - phase.ends[0] < 1.0
