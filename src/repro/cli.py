"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``
    Print the dataset ladder's Table-2 statistics.
``build``
    Build a K-SPIN index over a ladder dataset (or DIMACS files) and
    save it to disk.
``query``
    Load a saved index and answer a BkNN or top-k query.
``serve``
    Hold an index in memory and serve concurrent HTTP/JSON queries.
``explain``
    Run one query under a forced trace and pretty-print its span tree
    with per-stage timings and the §5.1 cost counters.
``profile``
    Sampling profiler: attach to a live server (start/collect over
    ``/v1/debug/profile``) or profile a local bench run; writes
    collapsed flame-graph text (``flamegraph.pl`` / speedscope input).
``events``
    Dump or follow the server's flight-recorder event stream
    (``/v1/debug/events``): admission sheds, cache evictions, worker
    lifecycle — one causally-ordered record.
``lint``
    Run the project-invariant linter (KSP rules, stdlib-only) over the
    source tree; non-zero exit on any finding.
``demo``
    Run the Figure-1 quickstart end to end.

Examples
--------
::

    python -m repro stats
    python -m repro build --dataset FL-S --oracle ch --out /tmp/fl.kspin
    python -m repro query --index /tmp/fl.kspin --vertex 100 \
        --keywords kw0001 kw0002 --kind topk --k 5 --stats
    python -m repro serve --index /tmp/fl.kspin --port 8080 --workers 8
    curl 'http://127.0.0.1:8080/v1/query?vertex=100&k=5&keywords=kw0001'
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.bench import print_table
    from repro.datasets import statistics_table

    rows = statistics_table()
    print_table(
        "Dataset ladder (Table 2 analogue)",
        ["Region", "|V|", "|E|", "|O|", "|doc(V)|", "|W|"],
        [
            [r["Region"], r["|V|"], r["|E|"], r["|O|"], r["|doc(V)|"], r["|W|"]]
            for r in rows
        ],
    )
    return 0


def _build_oracle(name: str, graph):
    from repro.distance import (
        CompositeOracle,
        ContractionHierarchy,
        DijkstraOracle,
        GTree,
        HubLabeling,
    )

    if name == "dijkstra":
        return DijkstraOracle(graph)
    if name == "ch":
        return ContractionHierarchy(graph)
    if name == "phl":
        return HubLabeling(graph, order="ch")
    if name == "auto":
        return CompositeOracle(graph)
    if name == "gtree":
        return GTree(graph)
    raise ValueError(f"unknown oracle {name!r}")


ORACLES = ["dijkstra", "ch", "phl", "gtree", "auto"]


def _add_index_source(parser: argparse.ArgumentParser) -> None:
    """``--index`` or ``--dataset/--oracle/--landmarks``: what to work on."""
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--index", help="saved index file (from `build`)")
    source.add_argument("--dataset", default="ME-S",
                        help="ladder dataset to build when no --index is "
                             "given (default ME-S)")
    parser.add_argument("--oracle", default="ch", choices=ORACLES,
                        help="distance oracle when building from --dataset "
                             "(auto = SALT-style composite: CH + hub labels + "
                             "CSR batches, routed per query)")
    parser.add_argument("--landmarks", type=int, default=16)


def _open_index(args: argparse.Namespace):
    """The ``KSpin`` a verb works on: the saved image, or a fresh build.

    Honours ``--seeding`` where the verb declares it; raises
    :class:`ValueError` when the oracle cannot supply labels.
    """
    seeding = getattr(args, "seeding", "nvd")
    if args.index:
        from repro.persist import load_kspin

        kspin = load_kspin(args.index)
        if seeding != "nvd":
            kspin.set_seeding(seeding)
        return kspin
    from repro.core import KSpin
    from repro.datasets import load_dataset
    from repro.lowerbound import AltLowerBounder

    dataset = load_dataset(args.dataset)
    return KSpin(
        dataset.graph,
        dataset.keywords,
        oracle=_build_oracle(args.oracle, dataset.graph),
        lower_bounder=AltLowerBounder(dataset.graph, num_landmarks=args.landmarks),
        seeding=seeding,
    )


def _query_from_args(args: argparse.Namespace):
    """The :class:`repro.api.Query` that ``--kind``/``--vertex``/... name."""
    from repro.api import Query

    return Query(
        args.vertex,
        tuple(args.keywords),
        k=args.k,
        kind="topk" if args.kind == "topk" else "bknn",
        mode="and" if args.kind == "bknn-and" else "or",
    )


def _print_cost_model(stats: dict, indent: str = "") -> None:
    """The five §5.1 counters of one answered query."""
    print(f"{indent}cost model (paper §5.1):")
    print(f"{indent}  iterations (kappa):      {stats['iterations']}")
    print(f"{indent}  distance computations:   {stats['distance_computations']}")
    print(f"{indent}  lower-bound evaluations: {stats['lower_bound_computations']}")
    print(f"{indent}  heap insertions:         {stats['heap_insertions']}")
    print(f"{indent}  heaps created:           {stats['heaps_created']}")


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core import KSpin
    from repro.lowerbound import AltLowerBounder
    from repro.persist import save_kspin

    if args.gr:
        from repro.graph import read_dimacs

        print(f"Loading DIMACS graph from {args.gr} ...")
        graph = read_dimacs(args.gr, args.co)
        if not args.documents:
            print("error: DIMACS input needs --documents (a Python dict "
                  "literal file mapping vertex -> keyword list)", file=sys.stderr)
            return 2
        import ast

        with open(args.documents) as handle:
            documents = ast.literal_eval(handle.read())
        from repro.text import KeywordDataset

        keywords = KeywordDataset(documents)
    else:
        from repro.datasets import load_dataset

        dataset = load_dataset(args.dataset)
        graph, keywords = dataset.graph, dataset.keywords
    print(f"Graph: {graph.num_vertices} vertices, {graph.num_edges} edges; "
          f"{keywords.num_objects} objects, {keywords.num_keywords} keywords")
    workers = args.workers
    if workers == 0:
        from repro.nvd.builder import available_cores

        workers = available_cores()
        print(f"Using all {workers} available cores for NVD construction")
    start = time.perf_counter()
    oracle = _build_oracle(args.oracle, graph)
    kspin = KSpin(
        graph,
        keywords,
        oracle=oracle,
        lower_bounder=AltLowerBounder(graph, num_landmarks=args.landmarks),
        rho=args.rho,
        workers=workers,
    )
    elapsed = time.perf_counter() - start
    written = save_kspin(kspin, args.out)
    print(f"Built in {elapsed:.1f}s; saved {written / 2**20:.2f} MB "
          f"to {args.out}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.persist import load_kspin

    kspin = load_kspin(args.index)
    keywords = list(args.keywords)
    query = _query_from_args(args)
    header = "score" if query.kind == "topk" else "distance"
    start = time.perf_counter()
    result = kspin.execute(query)
    elapsed = (time.perf_counter() - start) * 1000
    results = result.pairs()
    print(f"{args.kind} query from vertex {args.vertex} for {keywords} "
          f"({elapsed:.2f} ms):")
    if not results:
        print("  no matching objects")
    for rank, (obj, value) in enumerate(results, start=1):
        doc = sorted(kspin.index.document(obj))
        print(f"  #{rank}: vertex {obj}  {header}={value:.4f}  doc={doc[:6]}")
    print(f"  cost: {result.stats['distance_computations']} exact distances, "
          f"{result.stats['lower_bound_computations']} lower bounds")
    if args.stats:
        _print_cost_model(result.stats, indent="  ")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import Engine, QueryServer

    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.cluster < 0:
        print("error: --cluster must be non-negative", file=sys.stderr)
        return 2
    if args.cache_size < 0:
        print("error: --cache-size must be non-negative", file=sys.stderr)
        return 2
    if args.queue_size < 0:
        print("error: --queue-size must be non-negative", file=sys.stderr)
        return 2
    if args.rate_burst is not None and args.rate_limit is None:
        print("error: --rate-burst needs --rate-limit", file=sys.stderr)
        return 2
    if args.index:
        print(f"Loading index from {args.index} ...")
    else:
        print(f"Building {args.dataset} with the {args.oracle} oracle "
              f"({args.seeding} seeding) ...")
    try:
        kspin = _open_index(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cluster = None
    if args.cluster > 0:
        from repro.serve import ClusterCoordinator

        print(f"Forking {args.cluster} worker processes ...")
        cluster = ClusterCoordinator(
            kspin,
            num_workers=args.cluster,
            cache_size=args.cache_size,
            snapshot_path=args.index or None,
        ).start()
        backend = cluster
    else:
        backend = Engine(kspin, cache_size=args.cache_size)
    try:
        server = QueryServer(
            backend,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_queue=args.queue_size,
            deadline=args.deadline,
            verbose=args.verbose,
            trace=args.trace,
            trace_buffer=args.trace_buffer,
            slow_query_threshold=args.slow_query_threshold,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if cluster is not None:
            cluster.close()
        return 2
    if args.rate_limit:
        print(f"Per-client rate limit: {args.rate_limit:g} req/s "
              f"(burst {server.rate_limiter.capacity:g}); clients keyed by "
              "X-Client-Id header, falling back to the peer address")
    print(f"Serving {kspin.graph.num_vertices}-vertex index on {server.url}")
    print("Endpoints: /v1/query /v1/batch /v1/update /v1/healthz "
          "/v1/metrics /v1/debug/traces /v1/debug/events /v1/debug/profile"
          "  (Ctrl-C to stop)")
    if args.trace:
        print("Tracing enabled: span trees at /v1/debug/traces, "
              "Prometheus metrics at /v1/metrics?format=prometheus")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nShutting down.")
    finally:
        server.pool.close(wait=False)
        server.server_close()
        if cluster is not None:
            cluster.close()
    return 0


def _http_json(url: str, timeout: float = 10.0) -> dict:
    """GET ``url`` and decode the JSON envelope's ``result``."""
    import json
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:  # noqa: S310 - operator URL
        payload = json.loads(response.read().decode("utf-8"))
    if isinstance(payload, dict) and payload.get("ok") is False:
        error = payload.get("error") or {}
        raise RuntimeError(error.get("message", "server error"))
    if isinstance(payload, dict) and "result" in payload:
        return payload["result"]
    return payload


def _cmd_profile(args: argparse.Namespace) -> int:
    """Collect a collapsed flame graph from a server or a bench run."""
    from repro.obs.profile import PROFILER, render_collapsed

    if args.url:
        base = args.url.rstrip("/")
        _http_json(f"{base}/v1/debug/profile?action=start&hz={args.hz:g}")
        print(f"Sampling {base} at {args.hz:g} Hz for {args.duration:g}s ...")
        time.sleep(args.duration)
        payload = _http_json(f"{base}/v1/debug/profile?action=stop")
        folded = {
            str(stack): int(count)
            for stack, count in (payload.get("folded") or {}).items()
        }
        profilers = payload.get("profilers") or []
        samples = sum(int(p.get("samples", 0)) for p in profilers)
        print(f"{samples} samples across {len(profilers)} process(es), "
              f"{len(folded)} distinct stacks")
    else:
        from repro.api import Query
        from repro.serve.engine import Engine

        kspin = _open_index(args)
        engine = Engine(kspin, cache_size=0)
        keywords = sorted(kspin.index.keywords())
        if not keywords:
            print("error: index has no keywords to query", file=sys.stderr)
            return 2
        vertices = kspin.graph.num_vertices
        print(f"Profiling {args.queries} BkNN queries on "
              f"{vertices} vertices at {args.hz:g} Hz ...")
        with PROFILER.record(hz=args.hz):
            for i in range(args.queries):
                vertex = (i * 131) % vertices
                keyword = keywords[i % len(keywords)]
                engine.execute(Query(vertex, (keyword,), k=args.k))
        snapshot = PROFILER.snapshot()
        folded = {
            f"{PROFILER.source};{stack}": count
            for stack, count in PROFILER.folded().items()
        }
        print(f"{snapshot['samples']} samples, "
              f"{snapshot['distinct_stacks']} distinct stacks")
        top = PROFILER.top(5)
        if top:
            print("hottest frames:")
            for row in top:
                print(f"  {row['share']:6.1%}  {row['frame']}")
    collapsed = render_collapsed(folded)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(collapsed)
        print(f"Collapsed flame graph written to {args.out} "
              f"(feed it to flamegraph.pl or speedscope)")
    else:
        print(collapsed, end="")
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    """Dump (or ``--follow``) a server's flight-recorder stream."""
    import json

    from repro.obs.events import format_event

    base = args.url.rstrip("/")
    since_ts = 0.0
    seen: set[tuple] = set()
    try:
        while True:
            query = f"{base}/v1/debug/events?since_ts={since_ts:.6f}"
            if args.limit:
                query += f"&limit={args.limit}"
            reply = _http_json(query)
            for event in reply.get("events") or []:
                key = (event.get("source"), event.get("seq"), event.get("ts"))
                if key in seen:
                    continue
                seen.add(key)
                if args.jsonl:
                    print(json.dumps(event, sort_keys=True))
                else:
                    print(format_event(event))
                # Lag the cursor one poll interval behind the newest
                # event: merged streams are only causally ordered per
                # source, so a strict high-watermark could skip a
                # slightly-older event from another worker.  The seen
                # set deduplicates the overlap.
                since_ts = max(since_ts, float(event.get("ts", 0.0)) - 2.0)
            if not args.follow:
                return 0
            if len(seen) > 50000:
                seen = set(sorted(seen, key=lambda k: k[2])[-10000:])
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Answer one query under a forced trace; print the span tree."""
    from repro.obs.trace import TRACER, format_trace
    from repro.serve.engine import Engine

    kspin = _open_index(args)
    keywords = tuple(args.keywords)
    query = _query_from_args(args)
    # Cache disabled so the trace shows the real execution path, not a
    # cache hit; force=True traces even though the global tracer is off.
    engine = Engine(kspin, cache_size=0)
    start = time.perf_counter()
    with TRACER.trace(
        f"explain.{args.kind}",
        force=True,
        vertex=args.vertex,
        k=args.k,
        keywords=len(keywords),
    ) as root:
        result = engine.execute(query)
    wall_ms = (time.perf_counter() - start) * 1000.0
    print(f"{args.kind} query from vertex {args.vertex} for {list(keywords)}")
    print()
    print(format_trace(root.to_dict()))
    print()
    pairs = result.pairs()
    if not pairs:
        print("results: no matching objects")
    else:
        print("results:")
        for rank, (obj, value) in enumerate(pairs, start=1):
            print(f"  #{rank}: vertex {obj}  value={value:.4f}")
    _print_cost_model(result.stats)
    print(f"wall time: {wall_ms:.3f} ms (traced {root.duration * 1000.0:.3f} ms)")
    return 0


def _default_lint_paths() -> list[str]:
    """Lint ``src/repro`` when run from a checkout, else the cwd."""
    import os

    for candidate in ("src/repro", "src"):
        if os.path.isdir(candidate):
            return [candidate]
    return ["."]


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the whole-program linter (the KSP rules)."""
    import json

    from repro.analysis.linter import ALL_RULES, lint_paths, select_rules

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.title}")
        return 0
    try:
        rules = select_rules(args.select)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    findings = lint_paths(args.paths or _default_lint_paths(), rules=rules)
    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
    if findings:
        if args.format == "text":
            print(f"repro lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if args.format == "text":
        print("repro lint: clean")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """A self-contained run of the paper's Figure-1 example queries."""
    from repro.api import Query
    from repro.core import KSpin
    from repro.distance import DijkstraOracle
    from repro.graph import RoadNetwork
    from repro.lowerbound import AltLowerBounder
    from repro.text import KeywordDataset

    graph = RoadNetwork(16)
    for r in range(4):
        for c in range(4):
            v = r * 4 + c
            graph.set_coordinates(v, c, r)
            if c + 1 < 4:
                graph.add_edge(v, v + 1, 1.0)
            if r + 1 < 4:
                graph.add_edge(v, v + 4, 1.0)
    dataset = KeywordDataset(
        {
            5: ["italian", "restaurant"],
            1: ["takeaway", "thai"],
            10: ["grocer"],
            11: ["bakery", "grocer"],
            6: ["thai", "restaurant"],
            2: ["thai", "restaurant"],
            14: ["thai", "grocer"],
            4: ["italian", "takeaway", "restaurant"],
        }
    )
    kspin = KSpin(
        graph,
        dataset,
        oracle=DijkstraOracle(graph),
        lower_bounder=AltLowerBounder(graph, num_landmarks=4),
        rho=3,
    )
    print("K-SPIN demo on the paper's Figure-1 world (q = vertex 0)")
    disjunctive = kspin.execute(Query(0, ("restaurant", "takeaway"), k=1))
    print(f"  1NN for restaurant OR takeaway: {disjunctive.pairs()}")
    conjunctive = kspin.execute(Query(0, ("thai", "restaurant"), k=1, mode="and"))
    print(f"  1NN for thai AND restaurant:    {conjunctive.pairs()}")
    top = kspin.execute(Query(0, ("thai", "restaurant"), k=3, kind="topk"))
    print(f"  top-3 by weighted distance:     {top.pairs()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="K-SPIN: spatial keyword queries on road networks",
        epilog=(
            "static analysis: `repro lint` runs the project-invariant "
            "linter (KSP rules, stdlib-only); typing and hygiene are plain "
            "`mypy` and `ruff check` — see docs/static-analysis.md"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("stats", help="print dataset ladder statistics")

    build = commands.add_parser("build", help="build and save a K-SPIN index")
    build.add_argument("--dataset", default="ME-S",
                       help="ladder dataset name (default ME-S)")
    build.add_argument("--gr", help="DIMACS .gr file (overrides --dataset)")
    build.add_argument("--co", help="DIMACS .co coordinates file")
    build.add_argument("--documents",
                       help="file holding a dict literal: vertex -> keywords")
    build.add_argument("--oracle", default="ch", choices=ORACLES)
    build.add_argument("--rho", type=int, default=5)
    build.add_argument("--landmarks", type=int, default=16)
    build.add_argument("--workers", type=int, default=1,
                       help="processes for parallel NVD construction "
                            "(0 = all available cores)")
    build.add_argument("--out", required=True, help="output index path")

    query = commands.add_parser("query", help="query a saved index")
    query.add_argument("--index", required=True)
    query.add_argument("--vertex", type=int, required=True)
    query.add_argument("--keywords", nargs="+", required=True)
    query.add_argument("--kind", default="bknn",
                       choices=["bknn", "bknn-and", "topk"])
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--stats", action="store_true",
                       help="print the full §5.1 cost-model counters")

    serve = commands.add_parser(
        "serve", help="serve concurrent HTTP/JSON queries from memory"
    )
    _add_index_source(serve)
    serve.add_argument("--seeding", default="nvd", choices=["nvd", "labels"],
                       help="heap seeding backend (labels needs a hub-label "
                            "oracle: --oracle phl/auto, or an index built "
                            "with one)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--workers", type=int, default=4,
                       help="query worker threads")
    serve.add_argument("--cluster", type=int, default=0,
                       help="worker processes forked after index build "
                            "(0 = single-process thread engine)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="result-cache entries (0 disables caching)")
    serve.add_argument("--queue-size", type=int, default=64,
                       help="admitted requests allowed to wait (503 beyond)")
    serve.add_argument("--deadline", type=float, default=30.0,
                       help="per-request deadline in seconds (504 when missed)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.add_argument("--trace", action="store_true",
                       help="trace every query (span trees at "
                            "/v1/debug/traces, per-stage histograms in "
                            "/v1/metrics)")
    serve.add_argument("--trace-buffer", type=int, default=64,
                       help="recent traces kept for /v1/debug/traces")
    serve.add_argument("--slow-query-threshold", type=float, default=None,
                       metavar="SECONDS",
                       help="traced queries at least this slow also land "
                            "in the slow-query log")
    serve.add_argument("--rate-limit", type=float, default=None,
                       metavar="REQ_PER_SEC",
                       help="per-client steady-state request rate enforced "
                            "with a leaky bucket; over-budget requests get "
                            "429 + Retry-After (default: unlimited)")
    serve.add_argument("--rate-burst", type=float, default=None,
                       metavar="REQUESTS",
                       help="per-client burst allowance "
                            "(default: 2 * --rate-limit)")

    explain = commands.add_parser(
        "explain",
        help="trace one query and print its span tree with stage timings",
    )
    _add_index_source(explain)
    explain.add_argument("--vertex", type=int, required=True)
    explain.add_argument("--keywords", nargs="+", required=True)
    explain.add_argument("--k", type=int, default=10)
    kind = explain.add_mutually_exclusive_group()
    kind.add_argument("--bknn", dest="kind", action="store_const",
                      const="bknn", help="disjunctive BkNN (default)")
    kind.add_argument("--bknn-and", dest="kind", action="store_const",
                      const="bknn-and", help="conjunctive BkNN")
    kind.add_argument("--topk", dest="kind", action="store_const",
                      const="topk", help="weighted top-k")
    explain.set_defaults(kind="bknn")

    lint = commands.add_parser(
        "lint",
        help="run the project-invariant linter (KSP rules, stdlib-only)",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: src/repro)")
    lint.add_argument("--select", nargs="+", metavar="CODE",
                      help="run only these rule codes (e.g. KSP002 KSP003)")
    lint.add_argument("--format", default="text", choices=["text", "json"],
                      help="report format")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")

    profile = commands.add_parser(
        "profile",
        help="sampling profiler: attach to a server or profile a bench run",
    )
    profile.add_argument("--url", metavar="URL",
                         help="live server base URL (e.g. "
                              "http://127.0.0.1:8080); omitted = profile "
                              "a local query run instead")
    profile.add_argument("--duration", type=float, default=10.0,
                         help="seconds to sample an attached server "
                              "(default 10)")
    profile.add_argument("--hz", type=float, default=67.0,
                         help="sampling frequency (default 67 — co-prime "
                              "with common periodic work)")
    profile.add_argument("--out", metavar="PATH",
                         help="write collapsed stacks here instead of "
                              "stdout (flamegraph.pl / speedscope input)")
    _add_index_source(profile)
    profile.add_argument("--queries", type=int, default=2000,
                         help="BkNN queries for a local bench run "
                              "(default 2000)")
    profile.add_argument("--k", type=int, default=10)

    events = commands.add_parser(
        "events",
        help="dump or follow a server's flight-recorder event stream",
    )
    events.add_argument("--url", default="http://127.0.0.1:8080",
                        metavar="URL",
                        help="server base URL (default "
                             "http://127.0.0.1:8080)")
    events.add_argument("--follow", action="store_true",
                        help="poll forever, printing new events as they "
                             "arrive (Ctrl-C to stop)")
    events.add_argument("--interval", type=float, default=1.0,
                        help="poll period with --follow (default 1s)")
    events.add_argument("--limit", type=int, default=None,
                        help="cap events per fetch")
    events.add_argument("--jsonl", action="store_true",
                        help="emit raw JSON lines instead of the "
                             "human-readable rendering")

    commands.add_parser("demo", help="run the Figure-1 quickstart")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "stats": _cmd_stats,
        "build": _cmd_build,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "explain": _cmd_explain,
        "profile": _cmd_profile,
        "events": _cmd_events,
        "lint": _cmd_lint,
        "demo": _cmd_demo,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
