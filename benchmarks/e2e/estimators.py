"""A timed phase and its estimators: the best of repeated identical work.

A timed phase is a closed loop.  Where the stream repeats — a block of
unique queries cycled, or a block of reads and writes replayed from a
freshly loaded image — one pass over the block is one *unit* of identical
work, every operation is timed once per pass, and the estimators work on
the **quiet pass**: each operation at the best time any whole pass gave it.
Where the stream does not repeat (the HTTP workloads) the operations, in
completion order, are cut into ``SEGMENTS`` equal runs and the best run is
taken.

Best-of, because this host's slow-downs are one-sided and come in bursts of
0.2-2 s: nothing ever runs faster than the quiet speed, and a burst cannot
hit the same operation on every pass (README, "Host noise").
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

SEGMENTS = 5
#: Share of a timed phase's answers that are kept for checking.
KEEP_ONE_IN = 50


@dataclass
class Phase:
    """What closed loops recorded; times in seconds on one clock."""

    ends: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    #: Queries answered by the operation (a batch of 32 counts 32, an
    #: update counts 0).
    weights: list[int] = field(default_factory=list)

    def add(self, end: float, latency: float, weight: int = 1) -> None:
        self.ends.append(end)
        self.latencies.append(latency)
        self.weights.append(weight)

    def extend(self, other: "Phase") -> None:
        self.ends += other.ends
        self.latencies += other.latencies
        self.weights += other.weights

    def in_completion_order(self) -> "Phase":
        """A copy sorted by completion time (for merged connections)."""
        order = sorted(range(len(self.ends)), key=self.ends.__getitem__)
        return Phase(
            [self.ends[i] for i in order],
            [self.latencies[i] for i in order],
            [self.weights[i] for i in order],
        )


@dataclass
class Summary:
    """The three central readings of a phase and what they were best of."""

    throughput: float
    median: float
    tail: float
    #: Throughput of every pass or segment, for the printed range.
    rates: list[float]
    query_samples: int


def percentile(values: list[float], share: float = 0.95) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def quiet_pass(phase: Phase, unit: int) -> list[float]:
    """Per position of the block, the best latency over the whole passes."""
    passes = len(phase.latencies) // unit
    if passes == 0:
        raise ValueError("the phase did not finish one pass over its block")
    return [
        min(phase.latencies[position : passes * unit : unit])
        for position in range(unit)
    ]


def _query_latencies(latencies: list[float], weights: list[int]) -> list[float]:
    return [latency for latency, weight in zip(latencies, weights) if weight]


def summarise_passes(phase: Phase, unit: int) -> Summary:
    """Readings of a phase that repeats a block of ``unit`` operations."""
    best = quiet_pass(phase, unit)
    weights = phase.weights[:unit]
    queries = _query_latencies(best, weights)
    answered = sum(weights)
    passes = len(phase.latencies) // unit
    return Summary(
        throughput=answered / sum(best),
        median=statistics.median(queries),
        tail=percentile(queries),
        rates=[
            answered / sum(phase.latencies[i * unit : (i + 1) * unit])
            for i in range(passes)
        ],
        query_samples=len(queries),
    )


def segment_bounds(operations: int) -> list[tuple[int, int]]:
    """Index ranges of ``SEGMENTS`` equal runs; the remainder is dropped."""
    size = operations // SEGMENTS
    if size == 0:
        raise ValueError(f"{operations} operations cannot fill {SEGMENTS} segments")
    return [(part * size, (part + 1) * size) for part in range(SEGMENTS)]


def summarise_segments(phase: Phase) -> Summary:
    """Readings of a phase whose stream does not repeat: the best segment."""
    rates, medians, tails = [], [], []
    for low, high in segment_bounds(len(phase.ends)):
        # A closed loop starts an operation when the one before it ends.
        began = phase.ends[low] - phase.latencies[low]
        rates.append(sum(phase.weights[low:high]) / (phase.ends[high - 1] - began))
        queries = _query_latencies(phase.latencies[low:high], phase.weights[low:high])
        medians.append(statistics.median(queries))
        tails.append(percentile(queries))
    return Summary(
        throughput=max(rates),
        median=min(medians),
        tail=min(tails),
        rates=rates,
        query_samples=sum(1 for weight in phase.weights if weight),
    )


def closed_loop(call, ops, seconds: float, weigh, keep_offset: int = 0):
    """Run ``ops`` one at a time until ``seconds`` have passed or they end.

    Returns the :class:`Phase` and ``[(position, op, result)]`` for a
    1-in-``KEEP_ONE_IN`` sample of positions, plus every operation that
    raised (its result is the exception).  Keeping every result would make
    the runner's peak RSS grow with its speed.
    """
    clock = time.perf_counter
    kept = []
    phase = Phase()
    deadline = clock() + seconds
    for position, op in enumerate(ops):
        begin = clock()
        try:
            result = call(op)
        except Exception as error:  # a failed operation, not a crash
            result = error
        end = clock()
        phase.add(end, end - begin, weigh(op))
        if (position + keep_offset) % KEEP_ONE_IN == 0 or isinstance(result, Exception):
            kept.append((position, op, result))
        if end >= deadline:
            break
    return phase, kept
