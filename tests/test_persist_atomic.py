"""Atomicity tests for index persistence (crash-safe saves)."""

import os

import pytest

from repro.api import Query, UpdateOp
from repro.core import KSpin
from repro.distance import DijkstraOracle
from repro.graph import perturbed_grid_network
from repro.lowerbound import AltLowerBounder
from repro.persist import load_kspin, save_kspin
from repro.text import KeywordDataset


@pytest.fixture()
def kspin():
    graph = perturbed_grid_network(5, 5, seed=3)
    dataset = KeywordDataset({3: ["thai"], 12: ["thai", "bar"], 20: ["bar"]})
    return KSpin(
        graph,
        dataset,
        oracle=DijkstraOracle(graph),
        lower_bounder=AltLowerBounder(graph, num_landmarks=2),
    )


def test_save_leaves_no_temp_files(kspin, tmp_path):
    path = tmp_path / "index.kspin"
    save_kspin(kspin, str(path))
    assert load_kspin(str(path)).execute(Query(0, ["thai"], k=1)).pairs()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index.kspin"]


def test_resave_replaces_atomically(kspin, tmp_path):
    path = tmp_path / "index.kspin"
    save_kspin(kspin, str(path))
    kspin.apply(UpdateOp("insert", object=7, document=["cafe"]))
    save_kspin(kspin, str(path))
    reloaded = load_kspin(str(path))
    assert reloaded.execute(Query(0, ["cafe"], k=1)).pairs()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index.kspin"]


def test_crashed_save_keeps_previous_index(kspin, tmp_path, monkeypatch):
    """A failure mid-write must leave the old complete file untouched."""
    path = tmp_path / "index.kspin"
    save_kspin(kspin, str(path))
    good_bytes = path.read_bytes()

    def explode(_fd):
        raise OSError("disk died mid-save")

    monkeypatch.setattr(os, "fsync", explode)
    with pytest.raises(OSError):
        save_kspin(kspin, str(path))
    monkeypatch.undo()
    # Old file intact, loadable, and no orphaned temp file left behind.
    assert path.read_bytes() == good_bytes
    assert load_kspin(str(path)).execute(Query(0, ["thai"], k=1)).pairs()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index.kspin"]


def test_save_creates_missing_directory(kspin, tmp_path):
    nested = tmp_path / "a" / "b" / "index.kspin"
    save_kspin(kspin, str(nested))
    assert load_kspin(str(nested)).graph.num_vertices == 25
