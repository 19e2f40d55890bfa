"""Make the benchmark's modules and the program importable.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q`` from
the root of the repo.
"""

import os
import sys

import pytest

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
for path in (E2E, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session")
def world():
    """The smallest ladder rung: graph and keyword dataset."""
    from repro.datasets import load_dataset

    return load_dataset("DE-S")


@pytest.fixture(scope="session")
def smoke_settings():
    """Settings of a smoke run over the cached DE-S image."""
    import indeximage
    import workloads

    settings = workloads.Settings(
        seed=7, seconds=0.5, dataset="DE-S", setup_dataset="DE-S", smoke=True
    )
    settings.image, settings.image_build = indeximage.ensure_image("DE-S")
    return settings
