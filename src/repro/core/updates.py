"""Update-cost instrumentation (paper §6.2, Figure 8).

The paper studies lazy updates by picking keywords from the lower,
middle, and upper thirds of the frequency distribution ("small",
"medium", "large" NVDs), inserting x% of each diagram's objects lazily,
and reporting (a) query time degradation and (b) per-insert cost versus
the one-off rebuild cost.  This module packages those measurements so
the Figure 8 benchmark and the update tests share one implementation.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable
from dataclasses import dataclass

from repro.graph.road_network import RoadNetwork
from repro.nvd.approximate import ApproximateNVD, DistanceFn
from repro.text.documents import KeywordDataset


@dataclass
class UpdateCosts:
    """Measured costs of a lazy-update batch on one keyword's NVD."""

    keyword: str
    inserted: int
    mean_insert_seconds: float
    rebuild_seconds: float


def pick_update_keywords(dataset: KeywordDataset, rho: int) -> dict[str, str]:
    """Choose the paper's "large/medium/small" NVD keywords.

    Returns ``{"large": kw, "medium": kw, "small": kw}`` — keywords from
    the top, middle, and lower thirds of the frequency ranking, each
    still large enough (> rho) to own a real NVD.
    """
    ranked = [
        keyword
        for keyword, size in dataset.frequency_rank()
        if size > rho
    ]
    if len(ranked) < 3:
        raise ValueError("corpus too small to pick three NVD keywords")
    return {
        "large": ranked[0],
        "medium": ranked[len(ranked) // 2],
        "small": ranked[-1],
    }


class BackgroundRebuilder:
    """Rebuild over-threshold APX-NVDs on a worker thread (paper §6.2).

    "Lazy updates allow the system to continue processing of incoming
    queries while a new APX-NVD may be built in parallel."  The
    rebuilder owns a single worker thread; :meth:`schedule` enqueues a
    keyword, the worker rebuilds its diagram from the index's current
    live objects, and the finished diagram is swapped in atomically
    (a single dict assignment under CPython's GIL).  Queries keep
    running against the lazy diagram until the swap.

    Use as a context manager or call :meth:`close` to join the worker::

        with BackgroundRebuilder(kspin.index, kspin.graph) as rebuilder:
            kspin.apply(UpdateOp("insert", ...))
            rebuilder.schedule("thai")
            ...
            rebuilder.wait()   # all scheduled rebuilds finished
    """

    def __init__(self, index: ApproximateNVD, graph: RoadNetwork) -> None:
        self._index = index
        self._graph = graph
        self._tasks: queue.Queue[str | None] = queue.Queue()
        self._rebuilt: list[str] = []
        self._errors: list[tuple[str, Exception]] = []
        self._listeners: list[Callable[[str], None]] = []
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()

    def add_listener(self, listener: Callable[[str], None]) -> None:
        """Register ``listener(keyword)`` to fire after each diagram swap.

        This is the serving layer's cache-invalidation hook: a freshly
        rebuilt diagram can reorder heap expansion, so any cached result
        that read the old diagram must be evicted the moment the swap
        lands (e.g. ``rebuilder.add_listener(engine.on_rebuilt)``).
        Listeners run on the worker thread and must be thread-safe.
        """
        self._listeners.append(listener)

    def _run(self) -> None:
        while True:
            keyword = self._tasks.get()
            try:
                if keyword is None:
                    return
                nvd = self._index.nvd(keyword)
                if nvd is None or not nvd.live_count():
                    continue
                fresh = nvd.rebuild(self._graph)
                # Atomic swap: dict item assignment is a single bytecode.
                self._index._nvds[keyword] = fresh
                self._rebuilt.append(keyword)
                for listener in self._listeners:
                    listener(keyword)
            except Exception as error:  # pragma: no cover - defensive
                self._errors.append((keyword or "?", error))
            finally:
                self._tasks.task_done()

    def schedule(self, keyword: str) -> None:
        """Queue one keyword's diagram for a background rebuild."""
        self._tasks.put(keyword)

    def schedule_pending(self) -> list[str]:
        """Queue every keyword past the index's rebuild threshold."""
        scheduled = []
        for keyword, pending in self._index.pending_updates().items():
            if pending >= self._index.rebuild_threshold:
                self.schedule(keyword)
                scheduled.append(keyword)
        return scheduled

    def wait(self) -> None:
        """Block until all scheduled rebuilds have been swapped in."""
        self._tasks.join()
        if self._errors:
            keyword, error = self._errors[0]
            raise RuntimeError(f"background rebuild of {keyword!r} failed") from error

    @property
    def rebuilt_keywords(self) -> list[str]:
        """Keywords whose diagrams have been swapped so far."""
        return list(self._rebuilt)

    def close(self) -> None:
        """Finish outstanding work and stop the worker thread."""
        self._tasks.put(None)
        self._worker.join()

    def __enter__(self) -> "BackgroundRebuilder":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def apply_lazy_inserts(
    nvd: ApproximateNVD,
    graph: RoadNetwork,
    fraction: float,
    distance_fn: DistanceFn,
) -> UpdateCosts:
    """Insert ``fraction`` of the NVD's object count as new lazy objects.

    New objects are non-object vertices chosen deterministically by a
    stride over the vertex range, mirroring the paper's x% insertions.
    Returns per-insert and rebuild timings.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    count = max(1, int(len(nvd.objects) * fraction))
    existing = set(nvd.objects)
    stride = max(1, graph.num_vertices // (count * 3 + 1))
    new_objects: list[int] = []
    vertex = 0
    while len(new_objects) < count and vertex < graph.num_vertices:
        if vertex not in existing:
            new_objects.append(vertex)
            existing.add(vertex)
        vertex += stride
    if len(new_objects) < count:
        new_objects.extend(
            v
            for v in graph.vertices()
            if v not in existing
        )
        new_objects = new_objects[:count]
    start = time.perf_counter()
    for obj in new_objects:
        nvd.insert_object(obj, graph.coordinates(obj), distance_fn)
    elapsed = time.perf_counter() - start
    rebuild_start = time.perf_counter()
    nvd.rebuild(graph)
    rebuild_seconds = time.perf_counter() - rebuild_start
    return UpdateCosts(
        keyword=nvd.keyword or "?",
        inserted=len(new_objects),
        mean_insert_seconds=elapsed / max(1, len(new_objects)),
        rebuild_seconds=rebuild_seconds,
    )
