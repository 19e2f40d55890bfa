"""The repo's end-to-end benchmark: six workloads on US-S, one command.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed N

builds (or finds) the saved US-S image, runs every workload's end-to-end
pass and layer pass, checks the answers against ``repro.core.reference``
and prints every metric by name with its unit.  With ``--workload`` it
runs one pass of one workload and prints one JSON line, which is how the
PR driver calls it (see BENCHMARK.json at the root of the repo):

    python3 benchmarks/e2e/run.py --workload core_nvd --seed 3 --seconds 12 --trace 0

README.md beside this file defines every metric and says why each
workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

from httpdrive import ROOT, SRC

DEFAULT_SECONDS = 12
SMOKE_SECONDS = 2


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of every timed phase (default {DEFAULT_SECONDS})")
    parser.add_argument("--workload", help="run one workload and print one JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end pass, 1 = layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help=f"DE-S and {SMOKE_SECONDS} s phases: a check of the harness, not a measurement")
    parser.add_argument("--out", metavar="PATH",
                        help="also write everything measured, as JSON, to PATH")
    return parser.parse_args(argv)


def host_block() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def commit() -> str:
    """The commit measured; a driver checkout is not a git repository."""
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def one_workload(args: argparse.Namespace, settings) -> int:
    """Driver mode: one pass, one JSON line with exactly four keys."""
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    if args.trace:
        layers = workloads.run_layer_pass(args.workload, settings)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.metrics.items()}
        attempted, failed = layers.attempted, layers.failed
    else:
        outcome = workloads.run_end_to_end(args.workload, settings)
        metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
                   for name, entry in workloads.end_to_end_metrics(outcome).items()}
        attempted, failed = outcome.attempted, outcome.failed
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A terminated runner must still unwind, so that every ``finally``
    # that stops a child process group runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import indeximage
    import workloads

    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    settings = workloads.Settings(seed=args.seed, seconds=seconds, smoke=args.smoke)
    if args.smoke:
        settings.dataset = settings.setup_dataset = "DE-S"
    settings.image, settings.image_build = indeximage.ensure_image(settings.dataset)
    if args.workload:
        return one_workload(args, settings)
    import report

    return report.run_all(settings, args.out, host_block(), commit())


if __name__ == "__main__":
    raise SystemExit(main())
