"""Timing spans around each layer's public methods, recorded from outside.

The layer pass of every workload runs under :func:`traced`, which swaps
public methods of the program's classes for timing wrappers and restores
them afterwards; nothing under ``src/`` knows it is measured.  Patching
classes, not instances, is what reaches the objects the program makes for
itself: ``Engine`` builds one ``QueryProcessor`` per worker thread on first
use, and heaps are born inside a query.

A span's *self time* is its duration minus the time its child spans cover;
summed over all spans it tiles the traced part of an operation exactly, so
``1 - sum(self) / wall`` is what no span explains.  Spans are folded into
per-name totals as they close (a batch workload closes half a million), and
a span that runs on another thread — the backend call inside
``WorkerPool.run`` — is charged to the span that handed it over.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import Counter
from types import SimpleNamespace
from typing import Callable, Iterator

clock = time.perf_counter_ns


class SpanRecorder:
    """Per-name span totals and counters, fed from any number of threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[SimpleNamespace] = []
        #: Program objects the wrappers met, for reading public snapshots.
        self.instances: dict[str, object] = {}
        self._routes_at_reset: Counter = Counter()

    def state(self) -> SimpleNamespace:
        """This thread's open spans, totals, counters and open NVD heaps."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = SimpleNamespace(stack=[], totals={}, counts=Counter(), heaps=[])
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    @staticmethod
    def begin(state: SimpleNamespace, name: str) -> list:
        """Open a span: ``[nanoseconds covered by children, start, name]``."""
        frame = [0, 0, name]
        state.stack.append(frame)
        frame[1] = clock()
        return frame

    @staticmethod
    def end(state: SimpleNamespace, frame: list) -> None:
        elapsed = clock() - frame[1]
        stack = state.stack
        stack.pop()
        name = frame[2]
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = [0, 0, 0]
        if stack:
            stack[-1][0] += elapsed
        # A span nested in one of its own name (the composite oracle
        # calling the label oracle) is the same call one level down.
        if not stack or stack[-1][2] != name:
            total[0] += 1
            total[1] += elapsed
        total[2] += elapsed - frame[0]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        state = self.state()
        frame = self.begin(state, name)
        try:
            yield frame
        finally:
            self.end(state, frame)

    def _routes(self) -> Counter:
        oracle = self.instances.get("oracle")
        return Counter(oracle.route_counts) if oracle is not None else Counter()

    def reset_routes(self) -> None:
        self._routes_at_reset = self._routes()

    def reset(self) -> None:
        """Forget everything recorded so far (end of warm-up)."""
        with self._lock:
            for state in self._threads:
                state.totals.clear()
                state.counts.clear()
        self.reset_routes()

    def summary(self) -> dict:
        """Span totals ``{name: [calls, inclusive_ns, self_ns]}``, the
        wrappers' counters, and the program's own public counters."""
        spans: dict[str, list[int]] = {}
        counts: Counter = Counter()
        with self._lock:
            for state in self._threads:
                counts.update(state.counts)
                for name, total in state.totals.items():
                    merged = spans.setdefault(name, [0, 0, 0])
                    for slot in range(3):
                        merged[slot] += total[slot]
        routes = self._routes()
        routes.subtract(self._routes_at_reset)
        seeding = self.instances.get("seeding")
        return {
            "spans": spans,
            "counts": dict(counts),
            "route_counts": dict(routes),
            "label_memory_bytes": seeding.label_memory_bytes() if seeding else 0,
        }


def _patches(recorder: SpanRecorder) -> list[tuple[object, str, object]]:
    """``(owner, attribute, replacement)`` for every measured method."""
    from repro import api
    from repro.core.heap_generator import HeapGenerator, InvertedHeap
    from repro.core.keyword_index import KeywordSeparatedIndex
    from repro.core.label_seeding import LabelHeap, LabelHeapGenerator
    from repro.core.query_processor import QueryProcessor
    from repro.distance.ch import ContractionHierarchy
    from repro.distance.composite import CompositeOracle
    from repro.distance.hub_labeling import HubLabeling
    from repro.lowerbound.alt import AltLowerBounder
    from repro.serve import http as serve_http
    from repro.serve.admission import WorkerPool
    from repro.serve.cache import ResultCache
    from repro.serve.engine import Engine

    begin, end, state_of = recorder.begin, recorder.end, recorder.state

    def timed(function: Callable, name: str, after: Callable | None = None) -> Callable:
        """``function`` inside a span; ``after(state, self, result)`` counts."""

        def wrapper(*args, **kwargs):
            state = state_of()
            frame = begin(state, name)
            try:
                result = function(*args, **kwargs)
            finally:
                end(state, frame)
            if after is not None:
                after(state, args[0], result)
            return result

        return wrapper

    def routed(function: Callable) -> Callable:
        # Route counts are the oracle's own; the pass reports their growth
        # since the oracle was first met (or since the warm-up was forgotten).
        inner = timed(function, "distance")

        def wrapper(self, *args):
            if recorder.instances.get("oracle") is not self:
                recorder.instances["oracle"] = self
                recorder.reset_routes()
            return inner(self, *args)

        return wrapper

    def open_heap(state, _generator, heap) -> None:
        state.heaps.append(heap)

    def seeded(state, generator, heap) -> None:
        recorder.instances["seeding"] = generator
        kind = "label_heaps" if isinstance(heap, LabelHeap) else "fallback_heaps"
        state.counts[kind] += 1

    def rebuilt(state, _index, keywords) -> None:
        state.counts["rebuilt_keywords"] += len(keywords)

    def pending(state, index, _result) -> None:
        # Only the one thread that holds the write lock gets here.
        waiting = sum(index.pending_updates().values())
        state.counts["pending_peak"] = max(state.counts["pending_peak"], waiting)

    def query(function: Callable) -> Callable:
        # The NVD heaps a query opened report their insertions once it ends.
        def wrapper(*args, **kwargs):
            state = state_of()
            frame = begin(state, "core.query_processor")
            try:
                return function(*args, **kwargs)
            finally:
                end(state, frame)
                state.counts["heap_insertions"] += sum(
                    heap.inserted_count for heap in state.heaps
                )
                state.heaps.clear()

        return wrapper

    bounds_to_many = AltLowerBounder.lower_bounds_to_many

    def counted_bounds(self, u, others):
        state = state_of()
        state.counts["alt_pairs"] += len(others)
        frame = begin(state, "lowerbound.alt")
        try:
            return bounds_to_many(self, u, others)
        finally:
            end(state, frame)

    pool_run = WorkerPool.run

    def admitted_run(self, fn, deadline=None):
        with recorder.span("serve.admission") as frame:

            def handed_over():
                # On the pool's thread: charge what runs here to the span
                # that is waiting for it on the handler's thread.
                stack = state_of().stack
                stack.append(frame)
                try:
                    return fn()
                finally:
                    stack.pop()

            return pool_run(self, handed_over, deadline)

    server_init = serve_http.QueryServer.__init__

    def traced_server_init(self, *args, **kwargs):
        server_init(self, *args, **kwargs)
        handler = self.RequestHandlerClass
        self.RequestHandlerClass = type(
            "TracedHandler",
            (handler,),
            {"do_POST": timed(handler.do_POST, "serve.http")},
        )

    measured = [
        (QueryProcessor, "bknn", query(QueryProcessor.bknn)),
        (QueryProcessor, "top_k", query(QueryProcessor.top_k)),
        (AltLowerBounder, "lower_bounds_to_many", counted_bounds),
        (WorkerPool, "run", admitted_run),
        (CompositeOracle, "distance", routed(CompositeOracle.distance)),
        (CompositeOracle, "distances_many", routed(CompositeOracle.distances_many)),
        (CompositeOracle, "knn_many", routed(CompositeOracle.knn_many)),
        (serve_http.QueryServer, "__init__", traced_server_init),
        (
            api.Query,
            "from_dict",
            classmethod(timed(api.Query.from_dict.__func__, "api.parse")),
        ),
        (
            serve_http,
            "json",
            SimpleNamespace(
                loads=timed(json.loads, "api.parse"),
                dumps=timed(json.dumps, "api.serialise"),
                JSONDecodeError=json.JSONDecodeError,
            ),
        ),
    ]
    for owner, attribute, name, after in (
        (HeapGenerator, "heap_for", "core.heap_generator", open_heap),
        (InvertedHeap, "pop", "core.heap_generator", None),
        (LabelHeapGenerator, "heap_for", "core.label_seeding", seeded),
        (LabelHeap, "pop", "core.label_seeding", None),
        (ContractionHierarchy, "distance", "distance", None),
        (HubLabeling, "distance", "distance", None),
        (Engine, "execute_many", "serve.engine", None),
        (Engine, "apply", "serve.engine", None),
        (ResultCache, "get_many", "serve.cache.lookup", None),
        (ResultCache, "put", "serve.cache.store", None),
        (ResultCache, "invalidate_keywords", "serve.cache.invalidate", None),
        (KeywordSeparatedIndex, "insert_object", "core.keyword_index.insert", pending),
        (KeywordSeparatedIndex, "delete_object", "core.keyword_index.delete", pending),
        (KeywordSeparatedIndex, "add_keyword", "core.keyword_index.add_keyword", pending),
        (KeywordSeparatedIndex, "rebuild_pending", "core.keyword_index.rebuild", rebuilt),
        (api.QueryResult, "to_dict", "api.serialise", None),
    ):
        measured.append((owner, attribute, timed(getattr(owner, attribute), name, after)))
    return measured


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper; restore the program's own methods on exit."""
    originals = []
    for owner, attribute, replacement in _patches(recorder):
        originals.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)
    try:
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
