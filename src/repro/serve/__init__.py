"""``repro.serve`` — the concurrent query-serving subsystem.

Turns a built :class:`~repro.core.framework.KSpin` into a long-running
service: a thread-safe :class:`Engine` with a keyword-aware LRU result
cache, a process-parallel :class:`ClusterCoordinator` that forks workers
after index build (copy-on-write sharing) with least-loaded routing and
supervised restarts, a bounded :class:`WorkerPool` that sheds overload
instead of queueing it, and a stdlib HTTP/JSON front end
(:class:`QueryServer`) with a load-generation client
(:class:`ServeClient`).

Quick use::

    from repro.api import Query
    from repro.persist import load_kspin
    from repro.serve import ClusterCoordinator, Engine, QueryServer

    backend = Engine(load_kspin("fl.kspin"), cache_size=4096)
    # or escape the GIL with processes:
    # backend = ClusterCoordinator(load_kspin("fl.kspin"), num_workers=4)
    with QueryServer(backend, port=8080, workers=8).start_background() as server:
        ...  # curl http://127.0.0.1:8080/v1/query?vertex=5&k=3&keywords=thai
"""

from repro.api import (
    BatchResult,
    Hit,
    Query,
    QueryBatch,
    QueryResult,
    UnsupportedQueryError,
    UpdateOp,
    execute_batch,
)
from repro.serve.admission import DeadlineExceeded, ServerSaturated, WorkerPool
from repro.serve.cache import ResultCache, result_key
from repro.serve.cluster import ClusterCoordinator
from repro.serve.engine import Engine
from repro.serve.http import QueryServer
from repro.serve.ipc import WorkerDied, WorkerError, WorkerHandle
from repro.serve.loadgen import LoadResult, ServeClient, replay
from repro.serve.locks import ReadWriteLock
from repro.serve.metrics import LatencyRecorder, ServerMetrics
from repro.serve.placement import ReplicateRouter
from repro.serve.supervisor import Supervisor

__all__ = [
    "BatchResult",
    "ClusterCoordinator",
    "DeadlineExceeded",
    "Engine",
    "Hit",
    "LatencyRecorder",
    "LoadResult",
    "Query",
    "QueryBatch",
    "QueryResult",
    "QueryServer",
    "ReadWriteLock",
    "ReplicateRouter",
    "ResultCache",
    "ServeClient",
    "ServerMetrics",
    "ServerSaturated",
    "Supervisor",
    "UnsupportedQueryError",
    "UpdateOp",
    "WorkerDied",
    "WorkerError",
    "WorkerHandle",
    "WorkerPool",
    "execute_batch",
    "replay",
    "result_key",
]
