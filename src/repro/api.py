"""``repro.api`` — the unified query surface shared by every engine.

One query language, many interchangeable engines (the SALT design,
arXiv:1411.0257): :class:`KSpin <repro.core.framework.KSpin>`, the
serving :class:`Engine <repro.serve.engine.Engine>`, the process-sharded
:class:`ClusterCoordinator <repro.serve.cluster.ClusterCoordinator>`,
and all four baselines accept the same frozen :class:`Query` value and
return the same :class:`QueryResult`, so callers (benchmark harnesses,
the HTTP tier, correctness tests) can swap engines without translation
code.  Index mutations travel as :class:`UpdateOp` values so they can be
journaled, fanned out over IPC, and replayed on worker rehydration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.query_processor import QueryStats

#: Query families every engine may support.
KINDS = ("bknn", "topk")
#: Keyword combination semantics: disjunctive (any) or conjunctive (all).
MODES = ("or", "and")
#: Index mutations expressible as an :class:`UpdateOp`.
UPDATE_OPS = ("insert", "delete", "add_keyword", "remove_keyword", "rebuild")

#: §5.1 cost-model counter names carried in ``QueryResult.stats``.
STAT_FIELDS = (
    "iterations",
    "distance_computations",
    "lower_bound_computations",
    "heap_insertions",
    "heaps_created",
)


class UnsupportedQueryError(ValueError):
    """The engine cannot answer this query kind/mode combination."""


@dataclass(frozen=True)
class Query:
    """One spatial keyword query, engine-agnostic.

    Parameters
    ----------
    vertex:
        The query location (a road-network vertex).
    keywords:
        The query keyword vector (at least one keyword).
    k:
        Result count (positive).
    kind:
        ``"bknn"`` (Boolean kNN by network distance) or ``"topk"``
        (top-k by weighted distance, Eq. 1).
    mode:
        ``"or"`` (disjunctive, any keyword) or ``"and"`` (conjunctive,
        all keywords).  Top-k is disjunctive by definition; engines
        reject ``kind="topk", mode="and"`` with
        :class:`UnsupportedQueryError`.
    """

    vertex: int
    keywords: tuple[str, ...]
    k: int = 10
    kind: str = "bknn"
    mode: str = "or"

    def __post_init__(self) -> None:
        keywords = self.keywords
        if isinstance(keywords, str):
            keywords = (keywords,)
        object.__setattr__(
            self, "keywords", tuple(str(t) for t in keywords)
        )
        object.__setattr__(self, "vertex", int(self.vertex))
        object.__setattr__(self, "k", int(self.k))
        if not self.keywords:
            raise ValueError("a Query needs at least one keyword")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def conjunctive(self) -> bool:
        """Whether all keywords are required (``mode == "and"``)."""
        return self.mode == "and"

    def to_dict(self) -> dict:
        """A JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "vertex": self.vertex,
            "keywords": list(self.keywords),
            "k": self.k,
            "kind": self.kind,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Query":
        """Build a query from a JSON-shaped mapping.

        Accepts the HTTP surface's spellings: ``keywords`` may be a
        list or a comma-separated string, and a boolean ``conjunctive``
        is honoured when ``mode`` is absent.
        """
        raw = payload.get("keywords")
        if isinstance(raw, str):
            keywords: Sequence[str] = [t for t in raw.split(",") if t]
        elif isinstance(raw, (list, tuple)):
            keywords = [str(t) for t in raw]
        else:
            keywords = []
        mode = payload.get("mode")
        if mode is None:
            conjunctive = str(payload.get("conjunctive", "")).lower() in (
                "1", "true", "yes", "and",
            )
            mode = "and" if conjunctive else "or"
        return cls(
            vertex=payload["vertex"],
            keywords=tuple(keywords),
            k=payload.get("k", 10),
            kind=str(payload.get("kind", "bknn")),
            mode=str(mode),
        )


@dataclass(frozen=True)
class Hit:
    """One result object.

    ``score`` is the ranking value (ascending): the network distance for
    BkNN, the weighted ``d/TR`` score for top-k.  ``distance`` is the
    network distance when the engine computed one (BkNN), else ``None``.
    """

    object: int
    distance: float | None
    score: float

    def to_dict(self) -> dict:
        return {
            "object": self.object,
            "distance": self.distance,
            "score": self.score,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Hit":
        return cls(
            object=int(payload["object"]),
            distance=payload.get("distance"),
            score=float(payload["score"]),
        )


@dataclass(frozen=True)
class QueryResult:
    """One answered query: ranked hits plus execution metadata.

    ``stats`` holds the §5.1 cost-model counters as a plain dict (JSON
    and IPC friendly); ``worker`` names the cluster worker that answered
    (``None`` for in-process execution).
    """

    hits: tuple[Hit, ...]
    stats: dict = field(default_factory=dict)
    cached: bool = False
    worker: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "hits", tuple(self.hits))

    def pairs(self) -> list[tuple[int, float]]:
        """The classic ``[(object, score)]`` list the old methods returned."""
        return [(hit.object, hit.score) for hit in self.hits]

    def to_dict(self) -> dict:
        return {
            "hits": [hit.to_dict() for hit in self.hits],
            "results": [[hit.object, hit.score] for hit in self.hits],
            "stats": dict(self.stats),
            "cached": self.cached,
            "worker": self.worker,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QueryResult":
        return cls(
            hits=tuple(Hit.from_dict(h) for h in payload.get("hits", ())),
            stats=dict(payload.get("stats", {})),
            cached=bool(payload.get("cached", False)),
            worker=payload.get("worker"),
        )


@dataclass(frozen=True)
class UpdateOp:
    """One index mutation (paper §6.2), journal- and IPC-friendly.

    ``document`` is normalised to a sorted tuple of
    ``(keyword, frequency)`` pairs so operations hash, compare, and
    pickle deterministically; :meth:`document_counts` recovers the
    mapping engines consume.
    """

    op: str
    object: int | None = None
    document: tuple[tuple[str, int], ...] = ()
    keyword: str | None = None
    frequency: int = 1

    def __post_init__(self) -> None:
        if self.op not in UPDATE_OPS:
            raise ValueError(f"op must be one of {UPDATE_OPS}, got {self.op!r}")
        document = self.document
        if isinstance(document, Mapping):
            counts = {str(t): int(f) for t, f in document.items()}
        elif isinstance(document, str):
            counts = {document: 1}
        else:
            counts = {}
            for entry in document:
                if isinstance(entry, tuple) and len(entry) == 2:
                    counts[str(entry[0])] = counts.get(str(entry[0]), 0) + int(entry[1])
                else:
                    counts[str(entry)] = counts.get(str(entry), 0) + 1
        object.__setattr__(self, "document", tuple(sorted(counts.items())))
        if self.object is not None:
            object.__setattr__(self, "object", int(self.object))
        if self.frequency < 1:
            raise ValueError("frequency must be positive")
        if self.op in ("insert", "delete", "add_keyword", "remove_keyword"):
            if self.object is None:
                raise ValueError(f"op {self.op!r} needs an object")
        if self.op == "insert" and not self.document:
            raise ValueError("insert needs a non-empty document")
        if self.op in ("add_keyword", "remove_keyword") and not self.keyword:
            raise ValueError(f"op {self.op!r} needs a keyword")

    def document_counts(self) -> dict[str, int]:
        """The document as the ``{keyword: frequency}`` mapping engines take."""
        return dict(self.document)

    def touched_keywords(self) -> tuple[str, ...]:
        """Keywords this operation can affect (cache invalidation scope).

        Empty for ``delete`` (the object's live document must be looked
        up) and ``rebuild`` (the over-threshold set is engine state).
        """
        if self.op == "insert":
            return tuple(t for t, _ in self.document)
        if self.op in ("add_keyword", "remove_keyword"):
            return (self.keyword,) if self.keyword else ()
        return ()

    def to_dict(self) -> dict:
        payload: dict = {"op": self.op}
        if self.object is not None:
            payload["object"] = self.object
        if self.document:
            payload["document"] = self.document_counts()
        if self.keyword is not None:
            payload["keyword"] = self.keyword
        if self.frequency != 1:
            payload["frequency"] = self.frequency
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "UpdateOp":
        return cls(
            op=str(payload.get("op", "")),
            object=payload.get("object"),
            document=payload.get("document", ()),
            keyword=payload.get("keyword"),
            frequency=int(payload.get("frequency", 1)),
        )


# ----------------------------------------------------------------------
# Shared helpers for engines implementing the surface
# ----------------------------------------------------------------------
def ensure_supported(
    query: Query, engine: str, bknn: bool = True, topk: bool = True
) -> None:
    """Raise :class:`UnsupportedQueryError` for unanswerable queries.

    Covers the engine capability matrix (paper Table 1: e.g. ROAD lacks
    native top-k-free BkNN ordering, FS-FBS lacks top-k) and the
    definitional constraint that top-k is disjunctive.
    """
    if query.kind == "bknn" and not bknn:
        raise UnsupportedQueryError(f"{engine} does not support BkNN queries")
    if query.kind == "topk" and not topk:
        raise UnsupportedQueryError(f"{engine} does not support top-k queries")
    if query.kind == "topk" and query.mode == "and":
        raise UnsupportedQueryError(
            "top-k is disjunctive by definition (use boolean_top_k for "
            "conjunctive filters)"
        )


def stats_to_dict(stats: "QueryStats | None") -> dict:
    """Flatten a :class:`QueryStats` into the ``QueryResult.stats`` dict."""
    if stats is None:
        return {name: 0 for name in STAT_FIELDS}
    return {name: getattr(stats, name, 0) for name in STAT_FIELDS}


def merge_stat_dicts(dicts: Iterable[Mapping]) -> dict:
    """Sum §5.1 stats dicts via :meth:`QueryStats.merge` (one fold site).

    Every aggregation of cost counters — scatter-gather merging, the
    cluster metrics roll-up — goes through the dataclass's own ``merge``
    so a new counter field is added in exactly one place.
    """
    from repro.core.query_processor import QueryStats

    total = QueryStats()
    for payload in dicts:
        total.merge(QueryStats.from_dict(payload))
    return stats_to_dict(total)


def hits_from_pairs(
    kind: str, pairs: Iterable[tuple[int, float]]
) -> tuple[Hit, ...]:
    """Wrap an engine's classic ``[(object, value)]`` list into hits.

    For BkNN the value is the network distance (recorded in both
    ``distance`` and ``score``); for top-k it is the weighted score and
    no separate distance is available.
    """
    if kind == "bknn":
        return tuple(Hit(obj, value, value) for obj, value in pairs)
    return tuple(Hit(obj, None, value) for obj, value in pairs)


def merge_results(
    parts: Sequence[QueryResult], k: int
) -> QueryResult:
    """Scatter-gather merge: k best hits across partial answers.

    Used by the cluster coordinator for disjunctive BkNN queries whose
    keywords span several shards: each shard answers over its owned
    keyword subset, and the union's k smallest scores (dedup-ed by
    object, keeping the minimum) is exactly the global answer.
    """
    best: dict[int, Hit] = {}
    for part in parts:
        for hit in part.hits:
            kept = best.get(hit.object)
            if kept is None or hit.score < kept.score:
                best[hit.object] = hit
    merged = sorted(best.values(), key=lambda h: (h.score, h.object))[:k]
    stats = merge_stat_dicts(part.stats for part in parts)
    workers = sorted({part.worker for part in parts if part.worker})
    return QueryResult(
        hits=tuple(merged),
        stats=stats,
        cached=bool(parts) and all(part.cached for part in parts),
        worker=",".join(workers) if workers else None,
    )


@dataclass(frozen=True)
class QueryBatch:
    """An ordered batch of queries executed as one unit.

    Batches are the first-class execution unit: every engine answers
    :func:`execute_many`, and single-query ``execute`` calls are thin
    shims over a one-element batch.  Order is significant — the i-th
    entry of the answering :class:`BatchResult` corresponds to the i-th
    query here.
    """

    queries: tuple[Query, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))
        if not self.queries:
            raise ValueError("a QueryBatch needs at least one query")
        for query in self.queries:
            if not isinstance(query, Query):
                raise TypeError(f"QueryBatch entries must be Query, got {query!r}")

    def __len__(self) -> int:
        return len(self.queries)

    def to_dict(self) -> dict:
        return {"queries": [query.to_dict() for query in self.queries]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QueryBatch":
        raw = payload.get("queries")
        if not isinstance(raw, (list, tuple)):
            raise ValueError("batch payload needs a 'queries' list")
        return cls(queries=tuple(Query.from_dict(item) for item in raw))


@dataclass(frozen=True)
class BatchResult:
    """Per-item outcomes for one :class:`QueryBatch`, order-preserving.

    Exactly one of ``results[i]`` / ``errors[i]`` is set for each item:
    a failed query yields a per-item ``{"code", "message"}`` error
    object instead of failing the whole batch (see docs/api.md, "batch
    query lifecycle").
    """

    results: tuple[QueryResult | None, ...]
    errors: tuple[dict | None, ...] = ()

    def __post_init__(self) -> None:
        results = tuple(self.results)
        errors = tuple(self.errors) or (None,) * len(results)
        if len(errors) != len(results):
            raise ValueError("results and errors must have the same length")
        for result, error in zip(results, errors):
            if (result is None) == (error is None):
                raise ValueError(
                    "each batch item needs exactly one of result or error"
                )
        object.__setattr__(self, "results", results)
        object.__setattr__(self, "errors", errors)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok_count(self) -> int:
        return sum(1 for result in self.results if result is not None)

    def to_dict(self) -> dict:
        items = []
        for result, error in zip(self.results, self.errors):
            if result is not None:
                items.append({"ok": True, "result": result.to_dict()})
            else:
                items.append({"ok": False, "error": dict(error or {})})
        return {"items": items, "count": len(items), "ok_count": self.ok_count}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BatchResult":
        results: list[QueryResult | None] = []
        errors: list[dict | None] = []
        for item in payload.get("items", ()):
            if item.get("ok"):
                results.append(QueryResult.from_dict(item["result"]))
                errors.append(None)
            else:
                results.append(None)
                errors.append(dict(item.get("error", {})))
        return cls(results=tuple(results), errors=tuple(errors))


class QueryEngine(Protocol):
    """The engine protocol: what every engine answers, with these names.

    ``execute_many`` must be result-identical to
    :func:`execute_many_sequential`.  Extra parameters an engine adds
    to either method need defaults: callers pass only these.
    """

    def execute(self, query: Query) -> QueryResult: ...

    def execute_many(self, queries: Sequence[Query]) -> list[QueryResult]: ...


class UpdatableEngine(QueryEngine, Protocol):
    """An engine that also takes index mutations (``KSpin``, ``Engine``,
    ``ClusterCoordinator``; the four baselines are query-only)."""

    def apply(self, op: UpdateOp) -> dict: ...


def execute_many_sequential(
    engine: QueryEngine, queries: Sequence[Query]
) -> list[QueryResult]:
    """Reference batch semantics: answer each query independently, in order.

    This is the *definition* of ``execute_many`` — engines without a
    native batch path delegate here, and batch-capable engines must be
    result-identical to it (same hits in the same order per query).
    Keeping the per-item loop in this one explicitly-named helper (the
    KSP007 lint rule rejects such loops inside ``*_many`` bodies) makes
    accidental re-serialisation greppable.
    """
    return [engine.execute(query) for query in queries]


def batch_error_object(exc: BaseException) -> dict:
    """Map an exception to the per-item error envelope used in batches.

    Mirrors the HTTP tier's status mapping: malformed or unsupported
    queries are ``bad_request``; anything else is ``internal``.
    """
    if isinstance(exc, (UnsupportedQueryError, KeyError, ValueError, TypeError)):
        return {"code": "bad_request", "message": str(exc) or exc.__class__.__name__}
    return {"code": "internal", "message": f"{exc.__class__.__name__}: {exc}"}


def execute_batch(engine: QueryEngine, batch: QueryBatch) -> BatchResult:
    """Answer a batch with per-item error isolation.

    The happy path hands the whole batch to ``engine.execute_many`` in
    one call.  If any query is invalid (the batch call raises), each
    item is retried individually so one bad query yields a per-item
    error object rather than poisoning its batch-mates.
    """
    try:
        answers = engine.execute_many(list(batch.queries))
    except Exception:
        results: list[QueryResult | None] = []
        errors: list[dict | None] = []
        for query in batch.queries:
            try:
                # Sanctioned per-item retry: this loop only runs after
                # the batch call failed, to isolate the bad item.
                results.append(engine.execute(query))  # ksp: ignore[KSP007]
                errors.append(None)
            except Exception as exc:  # noqa: PERF203 - per-item isolation
                results.append(None)
                errors.append(batch_error_object(exc))
        return BatchResult(results=tuple(results), errors=tuple(errors))
    return BatchResult(results=tuple(answers), errors=(None,) * len(answers))
