"""The ``repro lint`` driver: file discovery, suppression, reporting.

Stdlib-only (``ast`` + ``pathlib``): the linter runs in a bare
checkout with no dev dependencies installed.

Suppression
-----------
A finding is suppressed by a trailing comment on the flagged line::

    self.conn.recv()  # ksp: ignore[KSP003] request/reply pipe discipline

``# ksp: ignore`` with no code list suppresses every rule on that line;
with a bracketed list it suppresses exactly those codes.

Scope markers
-------------
Path-scoped rules (reproducible paths, the IPC tier, the dispatchers)
key off the file's path relative to the ``repro`` package.  A
file outside the package — e.g. a rule fixture under
``tests/fixtures/lint/`` — opts into a scope with a marker in its first
ten lines::

    # ksp: scope=serve/cluster.py
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.analysis.callgraph import Project
from repro.analysis.findings import Finding
from repro.analysis.project_rules import PROJECT_RULES
from repro.analysis.rules import MODULE_RULES, ModuleContext, Rule

#: The full catalogue: per-module rules then interprocedural rules.
ALL_RULES: tuple[Rule, ...] = tuple(MODULE_RULES) + tuple(PROJECT_RULES)

_IGNORE_RE = re.compile(
    r"#\s*ksp:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)
_SCOPE_RE = re.compile(r"#\s*ksp:\s*scope=(?P<key>[\w./-]+)")

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


def module_key(path: Path) -> str:
    """The module key for ``path``: its location inside the package.

    ``src/repro/serve/cluster.py`` -> ``serve/cluster.py``; files not
    under a ``repro`` directory key as their bare filename (scope
    markers can override either way).
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return path.name


def _scope_override(source: str) -> str | None:
    for line in source.splitlines()[:10]:
        match = _SCOPE_RE.search(line)
        if match:
            return match.group("key")
    return None


def _suppressed(line_text: str, code: str) -> bool:
    match = _IGNORE_RE.search(line_text)
    if not match:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    return code in {token.strip() for token in codes.split(",")}


def iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _parse_module(source: str, path: str, key: str) -> ModuleContext | Finding:
    try:
        return ModuleContext.parse(path, _scope_override(source) or key, source)
    except SyntaxError as error:
        return Finding(
            path=path,
            line=error.lineno or 1,
            col=(error.offset or 1) - 1,
            code="KSP000",
            message=f"syntax error: {error.msg}",
        )


def _run_rules(
    contexts: Sequence[ModuleContext], rules: Sequence[Rule]
) -> list[Finding]:
    """Per-module rules on each context, interprocedural rules once.

    Both passes share the suppression contract: a ``# ksp: ignore``
    trailing comment on the flagged line silences the finding, looked
    up through whichever parsed module the finding points into.
    """
    by_path = {ctx.path: ctx for ctx in contexts}
    findings: list[Finding] = []
    for ctx in contexts:
        for rule in rules:
            if not rule.applies(ctx):
                continue
            for finding in rule.check(ctx):
                if not _suppressed(ctx.line_text(finding.line), finding.code):
                    findings.append(finding)
    project = Project.build(list(contexts))
    for rule in rules:
        for finding in rule.project_check(project):
            ctx = by_path.get(finding.path)
            line = ctx.line_text(finding.line) if ctx else ""
            if not _suppressed(line, finding.code):
                findings.append(finding)
    return sorted(findings)


def lint_sources(
    sources: Mapping[str, str], rules: Sequence[Rule] = ALL_RULES
) -> list[Finding]:
    """Lint ``{path: source}`` as one whole program.

    Every module is parsed into one project: the interprocedural rules
    need the complete symbol table and call graph.
    """
    contexts: list[ModuleContext] = []
    findings: list[Finding] = []
    for path, source in sources.items():
        parsed = _parse_module(source, path, module_key(Path(path)))
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            contexts.append(parsed)
    return sorted(findings + _run_rules(contexts, rules))


def lint_source(source: str, rules: Sequence[Rule] = ALL_RULES) -> list[Finding]:
    """Lint one source string as a single-module project."""
    return lint_sources({"<string>": source}, rules)


def lint_paths(
    paths: Sequence[Path | str], rules: Sequence[Rule] = ALL_RULES
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` as one whole program."""
    return lint_sources(
        {
            str(path): path.read_text(encoding="utf-8")
            for path in iter_python_files(Path(p) for p in paths)
        },
        rules,
    )


def select_rules(codes: Iterable[str] | None) -> list[Rule]:
    """The rule subset for ``--select`` (all rules when ``codes`` is None)."""
    if not codes:
        return list(ALL_RULES)
    wanted = {code.strip().upper() for code in codes}
    unknown = wanted - {rule.code for rule in ALL_RULES}
    if unknown:
        raise ValueError(f"unknown rule codes: {', '.join(sorted(unknown))}")
    return [rule for rule in ALL_RULES if rule.code in wanted]
