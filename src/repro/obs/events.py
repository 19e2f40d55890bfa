"""Structured flight recorder: a bounded append-only event log.

Metrics aggregate and traces sample; neither reconstructs *what
happened, in order* when a worker was SIGKILL-ed mid-stream or the
admission controller started shedding.  The flight recorder fills that
role the way aviation ones do: every process keeps a bounded,
append-only log of discrete serving events, cheap enough to leave on
permanently, and the coordinator can merge the per-process streams into
one causally-ordered record after the fact.

Event shape (JSON-ready, one dict per event)::

    {"seq": 17, "ts": 1699999999.123, "source": "worker-1",
     "kind": "worker.start", "fields": {"mode": "fork"}}

* ``seq`` is a **per-source monotonic sequence number** — the causal
  backbone.  Two events from the same source are ordered by ``seq``
  regardless of clock behaviour; merged streams preserve that order
  unconditionally (k-way merge by timestamp that only ever advances one
  stream's head, so a wall-clock step can never reorder one process's
  own history).
* ``ts`` is wall-clock time, used to interleave *across* sources.
* The log is a ``deque(maxlen=capacity)``: appending is O(1), memory is
  bounded, and the ``dropped`` counter records how much history scrolled
  off — the recorder never blocks or grows under load.

Event taxonomy (grep anchors, one dotted namespace per layer):
``query.shed`` / ``query.rate_limited`` / ``query.deadline`` (HTTP
admission), ``cache.evict`` (result cache), ``worker.start`` /
``worker.spawn`` / ``worker.death`` / ``worker.restart`` (cluster
lifecycle, incl. ``mode=fork|rehydrate``), and ``batch.scatter`` /
``batch.gather``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Callable, Iterable, Mapping, Sequence

#: Default per-process capacity; ~200 bytes/event -> a few hundred KiB.
DEFAULT_CAPACITY = 2048


class FlightRecorder:
    """Bounded append-only event log with per-source sequence numbers.

    Thread-safe; ``emit`` is the only writer and takes one short mutex,
    so it is safe to call from supervision threads, HTTP handlers, and
    the engine's update path alike.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        source: str = "main",
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.source = source
        self._clock = clock
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self.emitted = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(
        self,
        source: str | None = None,
        capacity: int | None = None,
    ) -> "FlightRecorder":
        """Re-label (cluster workers set their name post-fork) / resize."""
        with self._lock:
            if source is not None:
                self.source = source
            if capacity is not None:
                if capacity < 1:
                    raise ValueError("capacity must be positive")
                self._events = deque(self._events, maxlen=capacity)
        return self

    @property
    def capacity(self) -> int:
        return self._events.maxlen or 0

    def reset(self) -> None:
        """Drop buffered history and restart sequencing from zero.

        Forked cluster workers call this right after re-labelling: the
        inherited buffer is the *parent's* history, and replaying it
        as part of the worker's stream would duplicate every pre-fork
        event once per worker in the coordinator's merge.
        """
        with self._lock:
            self._events.clear()
            self._seq = 0
            self.emitted = 0
            self.dropped = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: object) -> dict:
        """Append one event; returns the stored payload (do not mutate)."""
        with self._lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "ts": self._clock(),
                "source": self.source,
                "kind": kind,
            }
            if fields:
                event["fields"] = fields
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(event)
            self.emitted += 1
            return event

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def events(
        self, since_seq: int = 0, since_ts: float | None = None
    ) -> list[dict]:
        """Buffered events, oldest first, filtered by cursor.

        ``since_seq`` filters this source's own sequence numbers
        (exclusive); ``since_ts`` filters by wall time (exclusive) —
        the follow-mode cursor, which works across merged sources.
        """
        with self._lock:
            return [
                event
                for event in self._events
                if event["seq"] > since_seq
                and (since_ts is None or event["ts"] > since_ts)
            ]

    def snapshot(self) -> dict:
        """Counters for metrics/health payloads (not the events)."""
        with self._lock:
            return {
                "source": self.source,
                "capacity": self._events.maxlen,
                "buffered": len(self._events),
                "emitted": self.emitted,
                "dropped": self.dropped,
                "last_seq": self._seq,
            }


def merge_streams(streams: Iterable[Sequence[Mapping]]) -> list[dict]:
    """K-way merge per-source event streams into one causal record.

    Guarantees, in priority order:

    1. **Per-source causality is never violated**: each input stream is
       consumed head-first in its own ``seq`` order, whatever the
       timestamps say (a stepped wall clock cannot reorder one worker's
       own history).
    2. Across sources, the head with the smallest ``(ts, source, seq)``
       goes next — best-effort wall-clock interleaving with a
       deterministic tiebreak, so merging the same inputs always yields
       the same record.

    This is exactly a heap merge except the comparison key is taken
    from stream *heads* only, which is what makes property 1
    unconditional rather than clock-dependent.
    """
    heads: list[list[dict]] = [
        sorted((dict(event) for event in stream), key=lambda e: e["seq"])
        for stream in streams
    ]
    cursors = [0] * len(heads)
    merged: list[dict] = []
    while True:
        best = -1
        best_key: tuple | None = None
        for i, stream in enumerate(heads):
            if cursors[i] >= len(stream):
                continue
            head = stream[cursors[i]]
            key = (head.get("ts", 0.0), str(head.get("source", "")), head["seq"])
            if best_key is None or key < best_key:
                best_key = key
                best = i
        if best < 0:
            return merged
        merged.append(heads[best][cursors[best]])
        cursors[best] += 1


def to_jsonl(events: Iterable[Mapping]) -> str:
    """One JSON object per line — the flight-recorder export format."""
    lines = [json.dumps(event, sort_keys=True) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


def format_event(event: Mapping) -> str:
    """One human-readable line (``repro events`` pretty mode)."""
    ts = event.get("ts", 0.0)
    stamp = time.strftime("%H:%M:%S", time.localtime(ts))
    millis = int((ts - int(ts)) * 1000)
    fields = event.get("fields") or {}
    rendered = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
    return (
        f"{stamp}.{millis:03d} {event.get('source', '?'):>10s} "
        f"#{event.get('seq', 0):<5d} {event.get('kind', '?'):<24s} {rendered}"
    ).rstrip()


#: The process-wide recorder.  Cluster workers re-label it post-fork
#: (``EVENTS.configure(source=name)``); the coordinator merges worker
#: streams with its own via the IPC ``events`` verb.
EVENTS = FlightRecorder()
