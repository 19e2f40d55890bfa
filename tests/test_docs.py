"""Every ``python`` example in ``README.md`` and ``docs/*.md`` runs.

A page is one story: its blocks run in order in one namespace, so a
later block may use what an earlier one built.  Each page runs in its
own temporary working directory, so files it writes (``de.kspin``) go
nowhere else.  Snippets that need data the repository does not ship
(the DIMACS downloads) are ``text`` blocks and are not run.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.obs.trace import TRACER

ROOT = Path(__file__).resolve().parent.parent
_BLOCK = re.compile(r"^([ \t]*)```python\n(.*?)^\1```", re.M | re.S)


def python_blocks(page: Path) -> list[str]:
    text = page.read_text(encoding="utf-8")
    return [textwrap.dedent(body) for _, body in _BLOCK.findall(text)]


PAGES = [
    page
    for page in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    if python_blocks(page)
]


def test_pages_are_found():
    assert {"README.md", "api.md", "observability.md"} <= {
        page.name for page in PAGES
    }


@pytest.mark.parametrize("page", PAGES, ids=lambda page: page.name)
def test_page_examples_run(page, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {"__name__": f"docs.{page.stem}"}
    try:
        for number, block in enumerate(python_blocks(page), 1):
            code = compile(block, f"{page.name} block {number}", "exec")
            exec(code, namespace)
    finally:
        # The tracer is process-global; leave it as a fresh process has it.
        TRACER.configure(enabled=False, buffer_size=64, slow_threshold=None)
