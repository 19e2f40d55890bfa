"""Project-invariant registry shared by the linter and the lock debugger.

The K-SPIN serving stack states its concurrency and reproducibility
invariants as *data*: which attributes are shared mutable state and
which lock guards them, which modules must stay deterministic so
``structural_fingerprint`` comparisons mean anything, which tier must
never swallow exceptions.  Both enforcement layers read this one
registry:

* the **static** layer (:mod:`repro.analysis.rules`) checks, file by
  file, that every write to a guarded attribute happens lexically under
  its lock;
* the **runtime** layer (:mod:`repro.analysis.lockdebug`) installs
  write-guard descriptors over the same attributes in
  ``REPRO_LOCK_DEBUG=1`` mode and reports writes observed while the
  declared lock is not held by the writing thread.

Keys are *module keys*: the path of a source file relative to the
``repro`` package (``"serve/cluster.py"``).  A file outside the package
(e.g. a lint-rule fixture) can opt into a scope with a
``# ksp: scope=serve/cluster.py`` marker in its first lines.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# KSP002 — shared mutable state and the lock that guards it
# ----------------------------------------------------------------------
#: module key -> class name -> attribute names whose writes require the
#: class's lock to be held (lexically: a ``with <lock>`` block or a
#: ``# ksp: holds[...]`` contract on the enclosing function).
GUARDED_ATTRIBUTES: dict[str, dict[str, frozenset[str]]] = {
    "serve/engine.py": {
        "Engine": frozenset({"updates_applied"}),
    },
    "serve/cache.py": {
        "ResultCache": frozenset({
            "hits",
            "misses",
            "invalidations",
            "_entries",
            "_by_keyword",
        }),
    },
    "serve/metrics.py": {
        "ServerMetrics": frozenset({
            "shed",
            "timeouts",
            "rate_limited",
            "queries_served",
            "_requests",
            "_errors",
            "_latency",
            "_error_latency",
            "_query_latency",
            "_endpoint_latency",
            "_stage_latency",
            "_stats_totals",
            "_batch_size",
        }),
    },
    "serve/cluster.py": {
        "ClusterCoordinator": frozenset({
            "updates_applied",
            "fallback_queries",
            "retried_requests",
            "dispatches",
            "short_circuits",
            "skipped_shards",
            "workers",
            "_journal",
            "_pool",
            "_started",
            "_snapshot_path",
            "_owns_snapshot",
        }),
    },
}

#: Method names that mutate a container in place: calling one of these
#: on a guarded attribute counts as a write.
MUTATING_METHODS = frozenset({
    "append",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "merge",
    "move_to_end",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
    "record",
})

# ----------------------------------------------------------------------
# KSP003 — blocking calls that must not run under a lock
# ----------------------------------------------------------------------
#: Dotted-name suffixes considered blocking.  ``Condition.wait`` is
#: deliberately absent: waiting on a condition *requires* holding its
#: lock.  ``str.join`` collides with ``Thread.join``, so joins are
#: excluded too — the lock-order runtime detector covers those.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "sleep",
    "recv",
    "recv_bytes",
    "poll",
    "select.select",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
})

# ----------------------------------------------------------------------
# KSP004 — nondeterminism in fingerprint-reproducible code paths
# ----------------------------------------------------------------------
#: Module-key prefixes whose built artefacts must be bit-reproducible
#: (the NVD build, the distance oracles, and the CSR search kernels:
#: ``structural_fingerprint`` equality across parallel builds and worker
#: rehydration depends on them being pure functions of their inputs).
REPRODUCIBLE_PREFIXES = ("nvd/", "distance/", "kernels/")

#: Dotted names whose call introduces wall-clock or RNG nondeterminism.
#: ``random.Random`` (an explicitly seeded instance) is allowed and
#: handled specially by the rule.
NONDETERMINISTIC_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "uuid.uuid1",
    "uuid.uuid4",
    "os.urandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
})

#: Functions of the global (process-wide, unseeded-by-default) RNGs.
NONDETERMINISTIC_PREFIXES = ("random.", "np.random.", "numpy.random.")

# ----------------------------------------------------------------------
# KSP005 — the tier where exceptions must never be swallowed silently
# ----------------------------------------------------------------------
#: Module keys of the supervision/IPC tier: a swallowed exception here
#: turns a worker death or pipe desync into an unexplained hang.
IPC_TIER = frozenset({
    "serve/supervisor.py",
    "serve/ipc.py",
    "serve/cluster.py",
})

# ----------------------------------------------------------------------
# KSP006 — objects crossing the IPC boundary must pickle
# ----------------------------------------------------------------------
#: Module-key prefixes where IPC send calls live.
IPC_PREFIX = "serve/"

#: Method names that put a payload on a pipe (or hand one to a child
#: process): lambdas and closures in their arguments fail to pickle
#: (fork hides this until the first spawn-mode restart).
IPC_SEND_METHODS = frozenset({"send", "send_bytes", "request", "Process"})

# ----------------------------------------------------------------------
# KSP001 — frozen API value types
# ----------------------------------------------------------------------
#: ``repro.api`` frozen dataclasses: the query surface's value types.
#: Mutating one after construction breaks cache keys, journal replay,
#: and cross-process equality all at once.
FROZEN_API_TYPES = frozenset({
    "Query",
    "QueryResult",
    "Hit",
    "UpdateOp",
    "QueryBatch",
    "BatchResult",
})

# ----------------------------------------------------------------------
# KSP007 — batch entry points must not loop over per-item shims
# ----------------------------------------------------------------------
#: Function-name suffixes declaring a *batch* entry point: callers pay
#: for one round trip and expect amortised execution.
BATCH_SUFFIXES = ("_many", "_batch")

#: The public per-item surface those batch bodies must not loop over —
#: such a loop silently re-serialises the batch one query at a time
#: (per-item locking, caching, and IPC round trips) while the name
#: claims otherwise.  Sanctioned sequential fallbacks live in
#: explicitly-named helpers (``execute_many_sequential``) or carry a
#: ``# ksp: ignore[KSP007]`` on the looping line.
PER_ITEM_SHIMS = frozenset({"execute", "distance", "knn", "lower_bound"})

# ----------------------------------------------------------------------
# KSP009 — transitive IPC payload picklability
# ----------------------------------------------------------------------
#: Class names whose instances the ``multiprocessing`` machinery itself
#: knows how to move across a ``Process(...)`` boundary (the pipe ends
#: handed to a child are reduced by the spawn plumbing, not pickled by
#: our payload code).
PROCESS_SAFE_TYPES = frozenset({"Connection", "PipeConnection"})

# ----------------------------------------------------------------------
# KSP010 — the repro.api engine protocol and its batch overrides
# ----------------------------------------------------------------------
#: The protocol surface: method name -> canonical positional parameter
#: names after ``self``.  Extra positional parameters are allowed only
#: with defaults (callers dispatch through the protocol shape).
ENGINE_PROTOCOL_PARAMS: dict[str, tuple[str, ...]] = {
    "execute": ("query",),
    "execute_many": ("queries",),
    "apply": ("op",),
}

#: module key -> class name -> the protocol methods that class claims.
#: The four road-network baselines are query-only (the paper's
#: comparison runs them against static indexes); the three updatable
#: engines claim ``apply`` as well.
ENGINE_REGISTRY: dict[str, dict[str, tuple[str, ...]]] = {
    "core/framework.py": {
        "KSpin": ("execute", "execute_many", "apply"),
    },
    "serve/engine.py": {
        "Engine": ("execute", "execute_many", "apply"),
    },
    "serve/cluster.py": {
        "ClusterCoordinator": ("execute", "execute_many", "apply"),
    },
    "baselines/expansion.py": {
        "NetworkExpansion": ("execute", "execute_many"),
    },
    "baselines/fsfbs.py": {
        "FsFbs": ("execute", "execute_many"),
    },
    "baselines/gtree_sk.py": {
        "GTreeSpatialKeyword": ("execute", "execute_many"),
    },
    "baselines/road.py": {
        "Road": ("execute", "execute_many"),
    },
}

#: Module-key prefixes scanned for *unregistered* engine-shaped classes
#: (anything defining both ``execute`` and ``execute_many``): a new
#: engine must be added to :data:`ENGINE_REGISTRY` so conformance and
#: batch-equivalence coverage follow it.
ENGINE_SCAN_PREFIXES = (
    "serve/engine.py",
    "serve/cluster.py",
    "baselines/",
    "core/framework.py",
)

#: Module-key prefixes whose public ``*_many``/``*_batch`` definitions
#: must be registered below (private ``_``-prefixed helpers and
#: non-protocol modules — cache sweeps, HTTP handlers, bench harnesses
#: — are out of scope).
BATCH_SCAN_PREFIXES = (
    "api.py",
    "serve/engine.py",
    "serve/cluster.py",
    "core/framework.py",
    "baselines/",
    "distance/",
    "lowerbound/",
)

#: Batch override -> the sequential reference its equivalence tests run
#: against.  ``"<module key>::<Class>.<method>"`` (or a bare function
#: name for module-level entries).  An unregistered override is a
#: KSP010 finding: nothing guarantees it computes what the per-item
#: path computes.
BATCH_REGISTRY: dict[str, str] = {
    "api.py::execute_batch": "api.execute_many_sequential",
    "serve/engine.py::Engine.execute_many": "api.execute_many_sequential",
    "serve/cluster.py::ClusterCoordinator.execute_many": (
        "api.execute_many_sequential"
    ),
    "core/framework.py::KSpin.execute_many": "api.execute_many_sequential",
    "baselines/expansion.py::NetworkExpansion.execute_many": (
        "api.execute_many_sequential"
    ),
    "baselines/fsfbs.py::FsFbs.execute_many": "api.execute_many_sequential",
    "baselines/gtree_sk.py::GTreeSpatialKeyword.execute_many": (
        "api.execute_many_sequential"
    ),
    "baselines/road.py::Road.execute_many": "api.execute_many_sequential",
    "distance/base.py::DistanceOracle.distances_many": (
        "DistanceOracle.distance (definitional sequential loop)"
    ),
    "distance/base.py::DistanceOracle.knn_many": (
        "DistanceOracle.knn (definitional sequential loop)"
    ),
    "distance/dijkstra_oracle.py::DijkstraOracle.distances_many": (
        "DistanceOracle.distances_many"
    ),
    "distance/dijkstra_oracle.py::BidirectionalDijkstraOracle.distances_many": (
        "DistanceOracle.distances_many"
    ),
    "distance/hub_labeling.py::HubLabeling.distances_many": (
        "DistanceOracle.distances_many"
    ),
    "distance/hub_labeling.py::HubLabeling.knn_many": (
        "DistanceOracle.knn_many"
    ),
    "distance/composite.py::CompositeOracle.distances_many": (
        "DistanceOracle.distances_many"
    ),
    "distance/composite.py::CompositeOracle.knn_many": (
        "DistanceOracle.knn_many"
    ),
    "lowerbound/base.py::LowerBounder.lower_bounds_to_many": (
        "LowerBounder.lower_bound (definitional sequential loop)"
    ),
    "lowerbound/alt.py::AltLowerBounder.lower_bounds_to_many": (
        "LowerBounder.lower_bounds_to_many"
    ),
    "lowerbound/alt.py::AltLowerBounder.lower_bounds_many": (
        "LowerBounder.lower_bounds_to_many"
    ),
}

# ----------------------------------------------------------------------
# KSP011 — observability coverage of every externally-driven surface
# ----------------------------------------------------------------------
#: Where each surface kind is discovered (module key): HTTP endpoints
#: from ``endpoint`` string comparisons in the request router, pipe
#: message kinds from ``kind`` comparisons in the worker loop, CLI
#: verbs from ``add_parser("...")`` registrations.
SURFACE_SOURCES: dict[str, str] = {
    "http": "serve/http.py",
    "ipc": "serve/ipc.py",
    "cli": "cli.py",
}

#: Surface -> the span/event names that prove it is observable.  An
#: empty tuple is an *explicit* exemption (liveness probes and the
#: observability drains themselves: instrumenting ``/metrics`` with a
#: metric would recurse).  Every listed name must match
#: :data:`INSTRUMENTATION_NAMES` / :data:`INSTRUMENTATION_PREFIXES`
#: *and* be emitted somewhere in the tree.
OBSERVED_SURFACES: dict[str, tuple[str, ...]] = {
    "http:/query": ("http.query",),
    "http:/batch": ("http.batch",),
    "http:/update": ("http.update", "update.applied"),
    "http:/healthz": (),
    "http:/metrics": (),
    "http:/debug/traces": (),
    "http:/debug/events": (),
    "http:/debug/profile": ("profiler.start", "profiler.stop"),
    "ipc:query": ("worker.query",),
    "ipc:query_batch": ("worker.query", "batch.scatter"),
    "ipc:update": ("update.applied",),
    "ipc:ping": (),
    "ipc:metrics": (),
    "ipc:health": (),
    "ipc:events": (),
    "ipc:profile": ("profiler.start", "profiler.stop"),
    "ipc:stop": ("worker.stop",),
    "cli:serve": ("http.query", "worker.spawn"),
    "cli:explain": ("explain.query",),
    "cli:profile": ("profiler.start",),
    "cli:events": (),
    "cli:stats": (),
    "cli:build": (),
    "cli:query": (),
    "cli:lint": (),
    "cli:typecheck": (),
    "cli:demo": (),
}

#: Every span/event name the tree is allowed to emit.  An emit site
#: whose constant name is absent here is a KSP011 finding (drift: the
#: registry is the contract dashboards and alert rules are written
#: against), and a name listed here but never emitted is stale.
INSTRUMENTATION_NAMES = frozenset({
    # flight-recorder events
    "query.shed",
    "query.rate_limited",
    "query.deadline",
    "cache.evict",
    "cache.admit_rejected",
    "worker.start",
    "worker.spawn",
    "worker.death",
    "worker.restart",
    "worker.stop",
    "batch.scatter",
    "batch.gather",
    "slo.burn_start",
    "slo.burn_stop",
    "update.applied",
    "profiler.start",
    "profiler.stop",
    # spans
    "http.query",
    "http.batch",
    "http.update",
    "cluster.execute",
    "cluster.dispatch",
    "cluster.merge",
    "cluster.short_circuit",
    "worker.query",
    "engine.cache_lookup",
    "engine.lock_wait",
    "engine.execute",
    "processor.search",
    "processor.heap_generation",
})

#: Prefixes for dynamically-built names (``f"explain.{kind}"``): an
#: emit site whose name is a constant prefix + runtime suffix is valid
#: when the prefix is listed here, and a registry name matching a
#: prefix counts as emitted.
INSTRUMENTATION_PREFIXES = ("explain.",)

# ----------------------------------------------------------------------
# Runtime write-guard registry (REPRO_LOCK_DEBUG=1)
# ----------------------------------------------------------------------
#: (dotted module, class name, lock attribute, guarded attributes) —
#: resolved lazily by :func:`repro.analysis.lockdebug.instrument` so
#: this module stays import-light and dependency-free.
WATCHED_ATTRIBUTES: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    (
        "repro.serve.metrics",
        "ServerMetrics",
        "_lock",
        ("shed", "timeouts", "rate_limited", "queries_served"),
    ),
    (
        "repro.serve.cache",
        "ResultCache",
        "_lock",
        ("hits", "misses", "invalidations"),
    ),
    (
        "repro.serve.cluster",
        "ClusterCoordinator",
        "_stats_lock",
        (
            "fallback_queries",
            "retried_requests",
            "dispatches",
            "short_circuits",
            "skipped_shards",
        ),
    ),
)
