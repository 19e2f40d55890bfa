"""Tests for the project-invariant linter (repro.analysis).

Every rule is proven twice.  A seeded-violation fixture under
``tests/fixtures/lint/`` (per-module rules) or a violating project plus
its clean twin under ``tests/fixtures/analysis/`` (interprocedural
rules) must be flagged with the rule's code.  And the rule's bug,
seeded into an in-memory copy of live ``src/repro``, must make that
rule — and nothing else — fire, while the unmodified tree lints clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.linter import (
    ALL_RULES,
    iter_python_files,
    lint_paths,
    lint_source,
    lint_sources,
    module_key,
    select_rules,
)
from repro.analysis.project_rules import PROJECT_RULES
from repro.analysis.rules import MODULE_RULES
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
PROJECT_FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"

FIXTURE_CASES = [
    ("ksp002_unlocked_write.py", "KSP002", 2),
    ("ksp003_blocking_under_lock.py", "KSP003", 1),
    ("ksp004_nondeterminism.py", "KSP004", 2),
    ("ksp005_swallowed_exception.py", "KSP005", 1),
    ("ksp006_lambda_over_ipc.py", "KSP006", 2),
    ("ksp007_batch_shim_loop.py", "KSP007", 2),
]

#: Interprocedural fixtures: each directory is one whole-program lint
#: unit, asserted against the exact multiset of codes it must produce.
PROJECT_FIXTURE_CASES = [
    ("ksp008_cycle", ["KSP008"]),
    ("ksp008_clean", []),
    ("ksp009_taint", ["KSP009"]),
    ("ksp009_clean", []),
    ("ksp011_uncovered", ["KSP011"]),
    ("ksp011_clean", []),
]

#: One plausible bug per rule, seeded into live code: (module under
#: src/repro, [(live text, seeded text)], the one code that must fire).
LIVE_MUTATIONS = [
    (  # the counter bump moved out of the write lock
        "serve/engine.py",
        [(
            "            if op.op != \"rebuild\":\n"
            "                self.updates_applied += 1\n",
            "        if op.op != \"rebuild\":\n"
            "            self.updates_applied += 1\n",
        )],
        "KSP002",
    ),
    (  # a sleep while every dispatcher waits on the stats lock
        "serve/cluster.py",
        [(
            "            with self._stats_lock:\n"
            "                self.short_circuits += short_circuits\n",
            "            with self._stats_lock:\n"
            "                time.sleep(0)\n"
            "                self.short_circuits += short_circuits\n",
        )],
        "KSP003",
    ),
    (  # a global-RNG draw at import of the NVD module
        "nvd/approximate.py",
        [("import time\n", "import random\nimport time\n\n_JITTER = random.random()\n")],
        "KSP004",
    ),
    (  # the supervisor forgets a failed sweep
        "serve/supervisor.py",
        [(
            "                self.sweep_errors += 1\n"
            "                self.last_error = f\"{type(error).__name__}: {error}\"\n",
            "                pass\n",
        )],
        "KSP005",
    ),
    (  # code on the pipe
        "serve/ipc.py",
        [("self.conn.send((kind, payload))", "self.conn.send((kind, payload, lambda: None))")],
        "KSP006",
    ),
    (  # the per-item retry loses its sanction
        "api.py",
        [(
            "results.append(engine.execute(query))  # ksp: ignore[KSP007]",
            "results.append(engine.execute(query))",
        )],
        "KSP007",
    ),
    (  # stats -> update in execute_many, update -> stats in apply
        "serve/cluster.py",
        [
            (
                "            with self._stats_lock:\n"
                "                self.short_circuits += short_circuits\n"
                "                self.dispatches += len(queries) - short_circuits\n",
                "            with self._stats_lock:\n"
                "                with self._update_lock:\n"
                "                    self.short_circuits += short_circuits\n"
                "                    self.dispatches += len(queries) - short_circuits\n",
            ),
            (
                "            self.updates_applied += 1\n            evicted = 0\n",
                "            with self._stats_lock:\n"
                "                self.updates_applied += 1\n"
                "            evicted = 0\n",
            ),
        ],
        "KSP008",
    ),
    (  # the parent's engine (thread-local, locks) sent to a worker
        "serve/cluster.py",
        [(
            'handle.request("update", op.to_dict())',
            'handle.request("update", self._fallback)',
        )],
        "KSP009",
    ),
    (  # the /update route loses its span
        "serve/http.py",
        [(
            "            with TRACER.trace(\"http.update\", op=op.op):\n"
            "                return self.server.backend.apply(op)\n",
            "            return self.server.backend.apply(op)\n",
        )],
        "KSP011",
    ),
]


@pytest.fixture(scope="module")
def live_sources() -> dict[str, str]:
    return {
        str(path): path.read_text(encoding="utf-8")
        for path in iter_python_files([SRC])
    }


class TestRuleFixtures:
    @pytest.mark.parametrize("fixture,code,count", FIXTURE_CASES)
    def test_seeded_violation_detected(self, fixture, code, count):
        findings = lint_paths([FIXTURES / fixture])
        codes = [f.code for f in findings]
        assert codes.count(code) == count, findings
        # and nothing *else* fires on the fixture
        assert set(codes) == {code}

    @pytest.mark.parametrize("case,expected", PROJECT_FIXTURE_CASES)
    def test_project_fixture(self, case, expected):
        findings = lint_paths([PROJECT_FIXTURES / case])
        assert sorted(f.code for f in findings) == sorted(expected), findings

    def test_every_rule_has_a_fixture(self):
        covered = {code for _, code, _ in FIXTURE_CASES}
        covered |= {
            code for _, codes in PROJECT_FIXTURE_CASES for code in codes
        }
        assert covered == {rule.code for rule in ALL_RULES}
        # and both halves of the catalogue are represented
        assert {rule.code for rule in MODULE_RULES} <= covered
        assert {rule.code for rule in PROJECT_RULES} <= covered

    def test_findings_carry_locations(self):
        findings = lint_paths([FIXTURES / "ksp003_blocking_under_lock.py"])
        (finding,) = findings
        assert finding.line == 13
        assert finding.render().startswith(str(FIXTURES / "ksp003"))

    @pytest.mark.parametrize(
        "scope,cls,attr",
        [
            ("serve/metrics.py", "ServerMetrics", "rate_limited"),
            ("serve/cluster.py", "ClusterCoordinator", "dispatches"),
            ("serve/cluster.py", "ClusterCoordinator", "short_circuits"),
        ],
    )
    def test_counter_written_under_a_lock_is_registered(self, scope, cls, attr):
        """Each counter is declared on its own class, where KSP002 and
        ``lockdebug`` both read it, and an unlocked write to it is a
        KSP002 finding naming the declared lock."""
        import importlib

        module = importlib.import_module(
            "repro." + scope[: -len(".py")].replace("/", ".")
        )
        declared = getattr(module, cls)._guarded_by
        (lock,) = [lock for lock, attrs in declared.items() if attr in attrs]
        source = (
            f"class {cls}:\n"
            f"    _guarded_by = {declared!r}\n"
            "    def record(self):\n"
            f"        self.{attr} += 1\n"
        )
        findings = lint_source(source, rules=select_rules(["KSP002"]))
        assert [f.code for f in findings] == ["KSP002"]
        assert f"'self.{lock}'" in findings[0].message

    def test_undeclared_attribute_written_locked_and_bare(self):
        source = (
            "class Tally:\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.x += 1\n"
            "    def bump_fast(self):\n"
            "        self.x += 1\n"
        )
        findings = lint_source(source)
        assert [(f.code, f.line) for f in findings] == [("KSP002", 6)]
        # written bare everywhere: nothing says it is shared
        assert lint_source(source.replace("with self._lock", "if True")) == []

    def test_suppressed_fixture_is_clean(self):
        assert lint_paths([FIXTURES / "ksp_suppressed.py"]) == []

    def test_suppression_is_code_specific(self):
        source = (
            "# ksp: scope=serve/supervisor.py\n"
            "def f(w):\n"
            "    try:\n"
            "        w.ping()\n"
            "    except Exception:  # ksp: ignore[KSP003]\n"
            "        pass\n"
        )
        findings = lint_source(source)
        assert [f.code for f in findings] == ["KSP005"]


class TestLiveMutations:
    @pytest.mark.parametrize(
        "module,edits,code", LIVE_MUTATIONS, ids=[m[2] for m in LIVE_MUTATIONS]
    )
    def test_seeded_bug_fires_its_rule(self, live_sources, module, edits, code):
        path = str(SRC / module)
        source = live_sources[path]
        for live, seeded in edits:
            assert source.count(live) == 1, f"mutation no longer matches {module}"
            source = source.replace(live, seeded)
        findings = lint_sources({**live_sources, path: source})
        assert [f.code for f in findings] == [code], findings

    def test_every_rule_is_proven_on_live_code(self):
        assert {code for _, _, code in LIVE_MUTATIONS} == {
            rule.code for rule in ALL_RULES
        }


class TestScopingAndDrivers:
    def test_module_key_inside_package(self):
        assert module_key(Path("src/repro/serve/cluster.py")) == "serve/cluster.py"
        assert module_key(Path("somewhere/odd.py")) == "odd.py"

    def test_scope_marker_opts_into_path_rules(self):
        source = (
            "# ksp: scope=nvd/voronoi.py\n"
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        )
        assert [f.code for f in lint_source(source)] == ["KSP004"]
        # without the marker the rule does not apply
        assert lint_source(source.split("\n", 1)[1]) == []

    def test_select_rules(self):
        rules = select_rules(["ksp003"])
        assert [r.code for r in rules] == ["KSP003"]
        with pytest.raises(ValueError):
            select_rules(["KSP999"])

    def test_select_project_rule(self):
        rules = select_rules(["KSP008"])
        assert [r.code for r in rules] == ["KSP008"]
        findings = lint_paths([PROJECT_FIXTURES / "ksp008_cycle"], rules=rules)
        assert [f.code for f in findings] == ["KSP008"]

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n")
        assert findings and findings[0].code == "KSP000"

    def test_source_tree_is_clean(self, live_sources):
        assert lint_sources(live_sources) == []


class TestCli:
    def test_lint_fixtures_exit_nonzero(self, capsys):
        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        for _, code, _ in FIXTURE_CASES:
            assert code in out

    def test_lint_source_tree_exits_zero(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        assert main([
            "lint", str(FIXTURES / "ksp003_blocking_under_lock.py"),
            "--format", "json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "KSP003"

    def test_lint_select(self, capsys):
        assert main([
            "lint", str(FIXTURES), "--select", "KSP006",
        ]) == 1
        out = capsys.readouterr().out
        assert "KSP006" in out and "KSP002" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out
