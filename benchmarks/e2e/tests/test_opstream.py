"""Streams are a pure function of the seed, and no operation can fail."""

import itertools

import opstream
from repro.api import Query, UpdateOp


def _mix(world, seed, count=600):
    pool = opstream.unique_queries(world.graph, world.keywords, seed, 64)
    return opstream.update_mix(world.graph, world.keywords, seed, count, pool)


def test_same_seed_gives_byte_identical_streams(world):
    first = opstream.unique_queries(world.graph, world.keywords, 5, 200)
    again = opstream.unique_queries(world.graph, world.keywords, 5, 200)
    assert opstream.stream_bytes(first) == opstream.stream_bytes(again)
    assert opstream.stream_bytes(_mix(world, 5)) == opstream.stream_bytes(_mix(world, 5))
    ranks = list(itertools.islice(opstream.zipf_ranks(64, 5, "c0"), 100))
    assert ranks == list(itertools.islice(opstream.zipf_ranks(64, 5, "c0"), 100))


def test_another_seed_gives_another_stream(world):
    first = opstream.unique_queries(world.graph, world.keywords, 5, 200)
    other = opstream.unique_queries(world.graph, world.keywords, 6, 200)
    assert opstream.stream_bytes(first) != opstream.stream_bytes(other)
    assert opstream.stream_bytes(_mix(world, 5)) != opstream.stream_bytes(_mix(world, 6))
    ranks = list(itertools.islice(opstream.zipf_ranks(64, 5, "c0"), 100))
    assert ranks != list(itertools.islice(opstream.zipf_ranks(64, 5, "c1"), 100))


def test_queries_are_distinct_and_drawn_in_balanced_rounds(world):
    queries = opstream.unique_queries(world.graph, world.keywords, 3, 160)
    assert len(set(queries)) == 160
    assert all(q.k == opstream.K and 1 <= len(q.keywords) <= 4 for q in queries)
    kinds = [(q.kind, q.mode) for q in queries]
    assert kinds.count(("bknn", "or")) == 80
    assert kinds.count(("bknn", "and")) == 40
    assert kinds.count(("topk", "or")) == 40


def test_update_mix_never_targets_a_dead_or_reused_object(world):
    ops = _mix(world, 11, 2000)
    live = set(world.keywords.objects())
    ever = set(live)
    for op in ops:
        if isinstance(op, Query):
            continue
        assert isinstance(op, UpdateOp)
        if op.op == "insert":
            assert op.object not in ever
            live.add(op.object)
            ever.add(op.object)
        elif op.op == "delete":
            assert op.object in live
            live.remove(op.object)
        elif op.op == "add_keyword":
            assert op.object in live
    # One write in every ten operations, dealt 4/2/3/1 whatever the seed.
    writes = [op.op for op in ops if isinstance(op, UpdateOp)]
    assert len(writes) == 200
    assert all(
        sum(isinstance(op, UpdateOp) for op in ops[i : i + 10]) == 1
        for i in range(0, 2000, 10)
    )
    assert [writes.count(kind) for kind in ("insert", "delete", "add_keyword", "rebuild")] == [
        80, 40, 60, 20,
    ]


def test_streams_do_not_depend_on_string_hash_randomisation():
    import hashlib
    import os
    import subprocess
    import sys

    from conftest import E2E, ROOT

    script = (
        "import hashlib, opstream\n"
        "from repro.datasets import load_dataset\n"
        "w = load_dataset('DE-S')\n"
        "pool = opstream.unique_queries(w.graph, w.keywords, 5, 200)\n"
        "ops = pool + opstream.update_mix(w.graph, w.keywords, 5, 400, pool[:64])\n"
        "print(hashlib.sha256(opstream.stream_bytes(ops)).hexdigest())\n"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([E2E, os.path.join(ROOT, "src")])
        digests.add(
            subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120,
            ).stdout
        )
    assert len(digests) == 1
