"""The K-SPIN framework facade (paper Figure 2).

:class:`KSpin` wires the four modules together:

1. **Lower Bounding Module** — any :class:`LowerBounder` (default: ALT).
2. **Network Distance Module** — any :class:`DistanceOracle`; plugging
   in CH, PHL, or G-tree reproduces the paper's KS-CH / KS-PHL / KS-GT
   variants.
3. **Heap Generator** — on-demand inverted heaps over the
   keyword-separated index.
4. **Query Processor** — BkNN and top-k algorithms.

Typical use::

    from repro import KSpin
    from repro.distance import ContractionHierarchy

    kspin = KSpin(graph, dataset, oracle=ContractionHierarchy(graph))
    kspin.execute(Query(query_vertex, ("thai", "restaurant"), k=10))
    kspin.execute(Query(query_vertex, ("hotel", "parking"), k=10, kind="topk"))
"""

from __future__ import annotations

from typing import Sequence

from repro.api import (
    Query,
    QueryResult,
    UpdateOp,
    ensure_supported,
    hits_from_pairs,
    stats_to_dict,
)
from repro import kernels
from repro.core.heap_generator import HeapGenerator
from repro.core.keyword_index import KeywordSeparatedIndex
from repro.core.query_processor import QueryProcessor, QueryStats
from repro.distance.base import DistanceOracle
from repro.graph.road_network import RoadNetwork
from repro.lowerbound.alt import AltLowerBounder
from repro.lowerbound.base import LowerBounder
from repro.text.documents import KeywordDataset
from repro.text.relevance import RelevanceModel


class KSpin:
    """Keyword Separated Indexing framework.

    Parameters
    ----------
    graph:
        The road network.  With one-way streets (``add_arc``) every
        distance is ``d(query -> object)``.
    dataset:
        Object documents (POIs with keywords).
    oracle:
        The Network Distance Module.  Any exact technique works; the
        paper's variants are CH (KS-CH), hub labeling (KS-PHL), and
        G-tree (KS-GT).  Those three index symmetric distances and
        refuse a graph with one-way streets; ``DijkstraOracle`` serves
        it.
    lower_bounder:
        The Lower Bounding Module; defaults to a 16-landmark ALT index.
    rho:
        APX-NVD approximation parameter (paper default 5).
    workers:
        Processes for parallel index construction.
    rebuild_threshold:
        Lazy updates per keyword before a ``rebuild`` op refreshes its
        diagram.
    seeding:
        Candidate-generation backend for the Heap Generator.  The
        default ``"nvd"`` is the paper's APX-NVD lazy expansion;
        ``"labels"`` scores every live object of a query keyword in
        one exact scan over hub-label rows (requires a hub-labeling
        oracle — :class:`HubLabeling` or a
        :class:`~repro.distance.composite.CompositeOracle`; lazy
        updates are visible to the next query, there is no fallback).
    """

    def __init__(
        self,
        graph: RoadNetwork,
        dataset: KeywordDataset,
        oracle: DistanceOracle,
        lower_bounder: LowerBounder | None = None,
        rho: int = 5,
        workers: int = 1,
        rebuild_threshold: int = 50,
        seeding: str = "nvd",
    ) -> None:
        self.graph = graph
        self.dataset = dataset
        self.oracle = oracle
        # Materialise the flat-array graph view up front: the build and
        # every query run over it, and cluster/pool workers forked after
        # this point share the arrays copy-on-write instead of each
        # rebuilding them.
        kernels.warm(graph)
        self.lower_bounder = lower_bounder or AltLowerBounder(graph)
        self.relevance = RelevanceModel(dataset)
        self.index = KeywordSeparatedIndex(
            graph,
            dataset,
            rho=rho,
            workers=workers,
            rebuild_threshold=rebuild_threshold,
        )
        self.heap_generator = self._make_heap_generator(seeding, oracle)
        self.processor = QueryProcessor(
            graph, self.index, self.relevance, oracle, self.heap_generator
        )

    def _make_heap_generator(
        self, seeding: str, oracle: DistanceOracle
    ) -> HeapGenerator:
        if seeding == "nvd":
            return HeapGenerator(self.lower_bounder)
        if seeding == "labels":
            from repro.core.label_seeding import LabelHeapGenerator

            labeling = getattr(oracle, "labeling", None)
            if labeling is None:
                raise ValueError(
                    "seeding='labels' needs a hub-labeling oracle "
                    "(HubLabeling or CompositeOracle), got "
                    f"{type(oracle).__name__}"
                )
            return LabelHeapGenerator(self.lower_bounder, labeling)
        raise ValueError(f"unknown seeding {seeding!r}; pick 'nvd' or 'labels'")

    def set_seeding(self, seeding: str) -> None:
        """Swap the Heap Generator backend in place.

        Lets a loaded (unpickled) engine opt into label seeding without
        rebuilding the index; raises :class:`ValueError` exactly like
        the constructor when the oracle cannot supply labels.
        """
        self.heap_generator = self._make_heap_generator(seeding, self.oracle)
        self.processor._heap_generator = self.heap_generator

    # ------------------------------------------------------------------
    # Queries (unified surface, repro.api)
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> QueryResult:
        """Answer one :class:`repro.api.Query` (the canonical entry point).

        Dispatches to Algorithm 1 (disjunctive BkNN), the §4.1.2
        conjunctive variant, or Algorithm 3 (top-k by weighted
        distance) according to ``query.kind``/``query.mode``.
        """
        ensure_supported(query, "KSpin")
        pairs = self.processor.answer(query)
        return QueryResult(
            hits=hits_from_pairs(query.kind, pairs),
            stats=stats_to_dict(self.processor.last_stats),
        )

    def execute_many(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch of queries, order-preserving.

        KSpin itself has no cache or lock to amortise, so the batch is
        the sequential reference semantics; the serving layers
        (:class:`repro.serve.Engine`, the cluster) override this with
        genuinely batched paths and must stay result-identical to it.
        """
        from repro.api import execute_many_sequential

        return execute_many_sequential(self, queries)

    def boolean_bknn(
        self, query: int, k: int, groups: Sequence[Sequence[str]]
    ) -> list[tuple[int, float]]:
        """BkNN under a mixed AND/OR expression in CNF (paper §2 remark).

        ``groups`` is an AND of OR-groups, e.g.
        ``[["thai"], ["takeaway", "restaurant"]]`` means
        *thai AND (takeaway OR restaurant)*.
        """
        return self.processor.bknn_cnf(query, k, groups)

    def boolean_top_k(
        self, query: int, k: int, groups: Sequence[Sequence[str]]
    ) -> list[tuple[int, float]]:
        """Top-k by weighted distance among objects matching a CNF filter.

        Ranks with ``d(q,o)/TR(psi,o)`` over all keywords the expression
        mentions, restricted to objects satisfying the AND of OR-groups.
        """
        return self.processor.top_k_cnf(query, k, groups)

    def top_k_weighted_sum(
        self,
        query: int,
        k: int,
        keywords: Sequence[str],
        alpha: float = 0.5,
        max_distance: float | None = None,
    ) -> list[tuple[int, float]]:
        """Top-k under the alternative weighted-sum scorer (§2).

        ``alpha`` trades distance against relevance; ``max_distance``
        normalises distances (defaults to a loose but valid bound).
        """
        return self.processor.top_k_weighted_sum(
            query, k, keywords, alpha=alpha, max_distance=max_distance
        )

    @property
    def last_stats(self) -> QueryStats:
        """Operation counts for the most recent query."""
        return self.processor.last_stats

    # ------------------------------------------------------------------
    # Updates (paper §6.2)
    # ------------------------------------------------------------------
    def apply(self, op: UpdateOp) -> dict:
        """Apply one :class:`repro.api.UpdateOp` — the only write path.

        Every write is lazy (queries stay exact, paper §6.2).  Returns a
        JSON-ready summary: ``{"rebuilt": [...]}`` for ``rebuild``,
        ``{"applied": op.op}`` otherwise.
        """
        if op.op == "rebuild":
            rebuilt = self.index.rebuild_pending()
            if rebuilt:
                # Label seeding drops the replaced diagrams' rows.
                self.heap_generator.invalidate(rebuilt)
            return {"applied": op.op, "rebuilt": rebuilt}
        if op.op == "delete":
            self.index.delete_object(op.object)
            return {"applied": op.op}
        if op.op == "insert":
            self.index.insert_object(
                op.object, op.document_counts(), self.oracle.distance
            )
        elif op.op == "add_keyword":
            self.index.add_keyword(
                op.object, op.keyword, self.oracle.distance, op.frequency
            )
        else:
            self.index.remove_keyword(op.object, op.keyword)
        # The written document may carry an impact above the build-time
        # maximum Algorithm 2 divides by.
        self.relevance.lift_max_impacts(self.index.document(op.object))
        return {"applied": op.op}

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Keyword index + lower-bound index (excludes the distance oracle,
        which the paper reports separately, e.g. "0.6 + 15.8 GB")."""
        return self.index.memory_bytes() + self.lower_bounder.memory_bytes()

    def total_memory_bytes(self) -> int:
        """Everything including the pluggable distance oracle."""
        return self.memory_bytes() + self.oracle.memory_bytes()
