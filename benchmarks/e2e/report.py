"""The one-command run: every workload, both passes, printed by name."""

from __future__ import annotations

import json
import sys

import workloads

#: A layer pass that leaves more of the caller's time than this outside
#: every span has found something; it is printed as a finding, not hidden.
UNTRACED_FINDING = 0.10


def _print_end_to_end(name: str, measured: dict) -> None:
    for metric, entry in measured["end_to_end"].items():
        line = f"  {name:<18} {metric:<16} {entry['value']:>12.4f} {entry['unit']:<4}"
        line += f" n={entry['samples']}, {entry['how']}"
        if "part_min" in entry:
            line += f" (each: {entry['part_min']:.4f} .. {entry['part_max']:.4f})"
        print(line)
    if "update_p50_ms" in measured["notes"]:
        # Engine.apply inside the mix; no other workload writes.
        print(
            f"  {name:<18} {'update_p50_ms':<16} {measured['notes']['update_p50_ms']:>12.4f} ms  "
            f" n={measured['notes']['updates_per_pass']}"
        )
    print(
        f"  {name:<18} {'failed_share':<16} {measured['failed_share']:>12.4f} ratio"
        f" ({measured['failed']} of {measured['attempted']} operations)"
    )


def _print_layers(results: dict) -> None:
    measured = [name for name in results if "layers" in results[name]]
    print("\nPer layer (layer pass; one column per workload)")
    print(f"  {'metric':<44}" + "".join(f"{name:>18}" for name in measured) + "  unit")
    for metric, unit in workloads.LAYER_METRICS.items():
        cells = "".join(
            f"{results[name]['layers'][metric]['value']:>18.4f}" for name in measured
        )
        print(f"  {metric:<44}{cells}  {unit}")


def run_all(settings: workloads.Settings, out_path: str | None, host: dict, commit: str) -> int:
    print(
        f"K-SPIN end-to-end benchmark: commit {commit}, dataset {settings.dataset}, "
        f"seed {settings.seed}, timed phases {settings.seconds:g} s"
    )
    print("host: " + ", ".join(f"{key} {value}" for key, value in host.items()))
    print(
        "image: built once per checkout in "
        f"{sum(v for k, v in settings.image_build.items() if k.endswith('_s')):.1f} s "
        f"({json.dumps(settings.image_build)})"
    )
    results: dict[str, dict] = {}
    print("\nEnd to end")
    for name in workloads.NAMES:
        if name in workloads.HTTP_WORKLOADS and host["usable_cores"] < 2:
            # A server and its load generator on one core measure the
            # scheduler (ROADMAP aim 1).
            print(f"  {name:<18} not_measured (needs 2 usable cores)")
            results[name] = {"not_measured": "fewer than 2 usable cores"}
            continue
        outcome = workloads.run_end_to_end(name, settings)
        results[name] = {
            "end_to_end": workloads.end_to_end_metrics(outcome),
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "failed_share": outcome.failed / outcome.attempted,
            "notes": outcome.notes,
        }
        _print_end_to_end(name, results[name])
        sys.stdout.flush()
    findings = []
    for name, measured in results.items():
        if "not_measured" in measured:
            continue
        layers = workloads.run_layer_pass(name, settings)
        measured["layers"] = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in layers.metrics.items()
        }
        measured["failed"] += layers.failed
        untraced = layers.metrics["bench.untraced_share"][0]
        if untraced > UNTRACED_FINDING:
            findings.append(
                f"{name}: {untraced:.0%} of the caller's time is inside no span"
            )
    _print_layers(results)
    if findings:
        print("\nFindings")
        for finding in findings:
            print(f"  {finding}")
    failing = [name for name, measured in results.items() if measured.get("failed")]
    if failing:
        print(f"\nFAILED: wrong, refused or failed operations in {', '.join(failing)}")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(
                {
                    "commit": commit,
                    "dataset": settings.dataset,
                    "setup_dataset": settings.setup_dataset,
                    "seed": settings.seed,
                    "seconds": settings.seconds,
                    "host": host,
                    "image_build": settings.image_build,
                    "workloads": results,
                },
                handle,
                indent=1,
            )
    return 1 if failing else 0
