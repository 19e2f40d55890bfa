"""Every docstring example in ``src/repro`` runs, and passes.

Only modules whose source contains ``>>>`` are imported, so modules with
import-time effects (``repro.__main__``) are never touched.
"""

import doctest
import importlib
import io
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).parent


def _modules_with_examples() -> list[str]:
    names = []
    for path in sorted(_ROOT.rglob("*.py")):
        if ">>>" in path.read_text(encoding="utf-8"):
            parts = path.relative_to(_ROOT.parent).with_suffix("").parts
            names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


MODULES = _modules_with_examples()


def test_examples_are_found():
    assert "repro.text.relevance" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(name)
    out = io.StringIO()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    for test in doctest.DocTestFinder().find(module):
        runner.run(test, out=out.write)
    assert runner.failures == 0, out.getvalue()
