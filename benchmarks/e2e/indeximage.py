"""Build K-SPIN from nothing, and keep one saved image per checkout.

US-S takes about 21 s to build (16 s of it CH contraction), more than a
whole benchmark run may take, so the image every workload serves from is
built once — in a child, so the runner's peak RSS never includes a build —
and cached under ``.bench_build/`` at the root of the checkout, keyed by a
digest of the sources that shape it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

from httpdrive import ROOT, SRC, child_environment

PACKAGE = os.path.join(SRC, "repro")
CACHE = os.path.join(ROOT, ".bench_build", "kspin-e2e")


def build_from_nothing(dataset_name: str, oracle: str = "composite", seeding: str = "nvd"):
    """Dataset, ALT, oracle, keyword index: ``(kspin, seconds per stage)``.

    ``oracle="ch"`` is what ``repro serve`` builds with no flags (the
    paper's KS-CH); ``"composite"`` shares one contraction between CH and
    the hub labels that label seeding needs.
    """
    from repro.core import KSpin
    from repro.datasets import load_dataset
    from repro.distance import CompositeOracle, ContractionHierarchy
    from repro.lowerbound import AltLowerBounder

    stages: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stages[stage] = now - mark
        mark = now

    dataset = load_dataset(dataset_name)
    lap("dataset_s")
    lower_bounder = AltLowerBounder(dataset.graph)
    lap("lowerbound.alt.build_s")
    if oracle == "ch":
        distance = ContractionHierarchy(dataset.graph)
    else:
        distance = CompositeOracle(dataset.graph)
    lap("distance.build_s")
    kspin = KSpin(
        dataset.graph,
        dataset.keywords,
        oracle=distance,
        lower_bounder=lower_bounder,
        seeding=seeding,
    )
    lap("core.keyword_index.build_s")
    return kspin, stages


def source_digest() -> str:
    """Digest of every source file a pickled image depends on."""
    digest = hashlib.sha256()
    for directory, _, files in sorted(os.walk(PACKAGE)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, PACKAGE).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def ensure_image(dataset_name: str) -> tuple[str, dict]:
    """Path of the cached image and what building it measured."""
    stem = os.path.join(CACHE, f"{dataset_name}-{source_digest()}")
    image, sidecar = stem + ".kspin", stem + ".json"
    if not (os.path.exists(image) and os.path.exists(sidecar)):
        os.makedirs(CACHE, exist_ok=True)
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), dataset_name, stem],
            check=True,
            env=child_environment(),
            stdout=subprocess.DEVNULL,
        )
    with open(sidecar) as handle:
        return image, json.load(handle)


def _build_image(dataset_name: str, stem: str) -> None:
    from repro.persist import save_kspin

    kspin, stages = build_from_nothing(dataset_name)
    started = time.perf_counter()
    stages["persist.image_bytes"] = save_kspin(kspin, stem + ".kspin")
    stages["persist.save_s"] = time.perf_counter() - started
    # The sidecar is written last and atomically: its presence marks a
    # complete image.
    with open(stem + ".json.tmp", "w") as handle:
        json.dump(stages, handle)
    os.replace(stem + ".json.tmp", stem + ".json")


if __name__ == "__main__":
    _build_image(sys.argv[1], sys.argv[2])
