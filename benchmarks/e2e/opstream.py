"""Seeded operation streams: the only thing the program under test receives.

One query generator serves every workload (ISSUE 11): §7.1-correlated
keyword vectors of 1-4 terms from ``WorkloadGenerator(num_popular_terms=20)``,
kinds 50 % BkNN-or / 25 % BkNN-and / 25 % top-k, k = 10, asked from uniform
query vertices.  Everything is a pure function of ``seed`` so a run can be
repeated exactly, and so the layer counts of two passes with one seed agree.
"""

from __future__ import annotations

import json
import random
from typing import Iterator

from repro.api import Query, UpdateOp
from repro.datasets import WorkloadGenerator
from repro.text.zipf import ZipfSampler

K = 10
MAX_TERMS = 4
POPULAR_TERMS = 20

#: One round of templates: 50 % BkNN-or / 25 % BkNN-and / 25 % top-k crossed
#: with 1-4 terms, dealt in shuffled rounds, not drawn independently, so any
#: prefix of the template list has the same mix.
DESIGN = tuple(
    (kind, mode, length)
    for length in range(1, MAX_TERMS + 1)
    for kind, mode in (("bknn", "or"), ("bknn", "or"), ("bknn", "and"), ("topk", "or"))
)

#: One round of writes in ``engine_update_mix``: 40 % insert, 20 % delete,
#: 30 % add_keyword, 10 % rebuild.  Like ``DESIGN`` it is dealt in shuffled
#: rounds, and one operation in every ``WRITE_EVERY`` is a write, so every
#: block of the mix has the same shape whatever the seed.
WRITE_ROUND = ("insert",) * 4 + ("delete",) * 2 + ("add_keyword",) * 3 + ("rebuild",)
WRITE_EVERY = 10


def _rng(seed: int, purpose: str) -> random.Random:
    # str seeds hash through sha512, so sub-streams are independent and
    # stable across python versions and processes.
    return random.Random(f"kspin-e2e:{seed}:{purpose}")


def _templates(graph, dataset, count: int) -> list[tuple[str, str, tuple[str, ...]]]:
    """The first ``count`` ``(kind, mode, keyword vector)`` templates.

    The same for every seed: what is asked is part of the workload, like
    the dataset; the seed decides from where and in what order.  Which
    keyword vector a query carries explains nine tenths of the variance in
    its cost, the vertex it is asked from a tenth, so with templates drawn
    per seed the median cost of 256 queries moved by 14 % from seed to seed
    (README, "Host noise").
    """
    generator = WorkloadGenerator(
        graph, dataset, num_popular_terms=POPULAR_TERMS, seed=0
    )
    vectors = {
        length: generator.keyword_vectors(length)
        for length in range(1, MAX_TERMS + 1)
    }
    rng = random.Random("kspin-e2e:templates")
    out: list[tuple[str, str, tuple[str, ...]]] = []
    while len(out) < count:
        round_ = list(DESIGN)
        rng.shuffle(round_)
        out += [(kind, mode, rng.choice(vectors[length])) for kind, mode, length in round_]
    return out[:count]


def unique_queries(graph, dataset, seed: int, count: int) -> list[Query]:
    """``count`` distinct queries: the templates, placed and ordered by ``seed``."""
    rng = _rng(seed, "queries")
    out: list[Query] = []
    seen: set[Query] = set()
    for kind, mode, keywords in _templates(graph, dataset, count):
        while True:
            query = Query(
                vertex=rng.randrange(graph.num_vertices),
                keywords=keywords, k=K, kind=kind, mode=mode,
            )
            if query not in seen:
                break
        seen.add(query)
        out.append(query)
    rng.shuffle(out)
    return out


def zipf_ranks(pool_size: int, seed: int, purpose: str) -> Iterator[int]:
    """An endless Zipf(alpha = 1) rank sequence over ``pool_size`` items."""
    sampler = ZipfSampler(
        pool_size, alpha=1.0, seed=_rng(seed, purpose).randrange(2**31)
    )
    while True:
        yield sampler.sample_rank()


def update_mix(graph, dataset, seed: int, count: int, pool: list[Query]) -> list[Query | UpdateOp]:
    """``count`` operations: reads over ``pool`` beside §6.2 writes.

    Reads walk the pool in shuffled rounds, so every query is read equally
    often.  (Zipf reads put a third of them on ten queries, and which ten
    the seed picked moved the cost of a 2048-operation block by +-7 %.)
    Written keywords are Zipf-chosen.  The generator keeps its own view of
    which objects are live so that no operation can fail: deletes and
    keyword additions target live objects, inserts target vertices that
    never carried a document.
    """
    rng = _rng(seed, "updates")
    reads: list[Query] = []
    vocabulary = [keyword for keyword, _ in dataset.frequency_rank()]
    keyword_ranks = zipf_ranks(len(vocabulary), seed, "update-keywords")
    documents = {obj: set(dataset.document(obj)) for obj in dataset.objects()}
    # Sorted list + swap-remove keeps choice() O(1) and order seed-determined.
    live = sorted(documents)
    free = [v for v in range(graph.num_vertices) if v not in documents]
    rng.shuffle(free)
    out: list[Query | UpdateOp] = []
    round_: list[str] = []
    while len(out) < count:
        # The write falls on a seeded slot of each run of WRITE_EVERY.
        slot = rng.randrange(WRITE_EVERY)
        for position in range(WRITE_EVERY):
            if position != slot:
                if not reads:
                    reads = list(pool)
                    rng.shuffle(reads)
                out.append(reads.pop())
                continue
            if not round_:
                round_ = list(WRITE_ROUND)
                rng.shuffle(round_)
            kind = round_.pop()
            if kind == "insert":
                obj = free.pop()
                length = rng.randint(2, 6)
                document = {vocabulary[next(keyword_ranks)] for _ in range(length)}
                documents[obj] = document
                live.append(obj)
                out.append(UpdateOp("insert", object=obj, document=tuple(sorted(document))))
            elif kind == "delete":
                victim = rng.randrange(len(live))
                live[victim], live[-1] = live[-1], live[victim]
                obj = live.pop()
                del documents[obj]
                out.append(UpdateOp("delete", object=obj))
            elif kind == "add_keyword":
                obj = live[rng.randrange(len(live))]
                keyword = next(
                    word
                    for word in (vocabulary[rank] for rank in keyword_ranks)
                    if word not in documents[obj]
                )
                documents[obj].add(keyword)
                out.append(UpdateOp("add_keyword", object=obj, keyword=keyword))
            else:
                out.append(UpdateOp("rebuild"))
    return out[:count]


def stream_bytes(ops: list[Query | UpdateOp]) -> bytes:
    """Canonical serialisation of a stream, for byte-identity checks."""
    return json.dumps(
        [[type(op).__name__, op.to_dict()] for op in ops], sort_keys=True
    ).encode()
