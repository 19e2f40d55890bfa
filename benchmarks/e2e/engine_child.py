"""The child that serves ``engine_update_mix`` from the saved image.

Started by the runner with the path of a pickled job.  It loads the image,
wraps it in an ``Engine`` with label seeding, answers the first operation
and prints ``READY`` (the end of the cold start the runner times).  A job
with ``seconds`` then replays its block of operations in closed loops, each
pass on a freshly loaded image so that every pass does identical work, and
pickles what it measured to ``job["out"]``.
"""

from __future__ import annotations

import pickle
import resource
import sys
import time


def main(job_path: str) -> None:
    from estimators import Phase, closed_loop
    from repro.api import Query
    from repro.persist import load_kspin
    from repro.serve import Engine

    with open(job_path, "rb") as handle:
        job = pickle.load(handle)
    ops = job["ops"]

    def fresh_engine() -> Engine:
        kspin = load_kspin(job["image"])
        kspin.set_seeding("labels")
        return Engine(kspin, cache_size=job["cache_size"])

    def run(op):
        return engine.execute(op) if isinstance(op, Query) else engine.apply(op)

    def is_query(op) -> bool:
        return isinstance(op, Query)

    engine = fresh_engine()
    run(ops[0])
    print("READY", flush=True)
    if not job["seconds"]:
        return
    for op in ops[1 : job["warmup"]]:
        run(op)
    phase, kept = Phase(), []
    deadline = time.perf_counter() + job["seconds"]
    while time.perf_counter() < deadline:
        engine = fresh_engine()
        one_pass, sample = closed_loop(
            run, ops, deadline - time.perf_counter(), is_query, job["keep_offset"]
        )
        phase.extend(one_pass)
        kept += sample
    generator = engine.kspin.heap_generator
    with open(job["out"], "wb") as handle:
        pickle.dump(
            {
                "phase": phase,
                "kept": kept,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "label_heaps": generator.label_heaps,
                "fallback_heaps": generator.fallback_heaps,
            },
            handle,
        )


if __name__ == "__main__":
    main(sys.argv[1])
