"""BENCHMARK.json and the runner name the same workloads and metrics."""

import json
import os
import re

import workloads
from conftest import ROOT
from estimators import Phase

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _end_to_end_units():
    phase = Phase()
    for i in range(1, 11):
        phase.add(float(i), 0.5)
    outcome = workloads.Outcome(
        phase=phase, unit=1, attempted=10, failed=0, setup_s=[1.0], peak_rss_mb=1.0
    )
    return {
        name: entry["unit"]
        for name, entry in workloads.end_to_end_metrics(outcome).items()
    }


def test_workloads_match():
    contract = _contract()
    assert [entry["name"] for entry in contract["workloads"]] == list(workloads.NAMES)
    assert all(len(entry["why"]) <= 200 for entry in contract["workloads"])


def test_end_to_end_metrics_match():
    contract = _contract()
    declared = {entry["name"]: entry["unit"] for entry in contract["end_to_end"]}
    assert declared == _end_to_end_units()
    assert declared["setup_s"] == "s"
    assert all(0 < entry["bound"] <= 0.25 for entry in contract["end_to_end"])


def test_per_layer_metrics_match():
    declared = {entry["name"]: entry["unit"] for entry in _contract()["per_layer"]}
    assert declared == workloads.LAYER_METRICS


def test_every_name_and_unit_is_well_formed():
    contract = _contract()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(
        UNIT.match(entry["unit"])
        for key in ("end_to_end", "per_layer")
        for entry in contract[key]
    )
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"][-1].startswith(contract["paths"][0])
