"""Tests for the project-invariant linter (repro.analysis).

Each per-module KSP rule has a seeded-violation fixture under
``tests/fixtures/lint/``; each interprocedural rule has a tiny project
(a violating case plus its clean twin) under ``tests/fixtures/
analysis/``.  The linter must flag each with the right code, honour
``# ksp: ignore[...]`` suppressions, and match the checked-in baseline
on the real source tree (the ratchet gate CI enforces).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    MODULE_RULES,
    PROJECT_RULES,
    config,
    lint_paths,
    lint_source,
    load_baseline,
    module_key,
    select_rules,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
PROJECT_FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"
BASELINE = ROOT / "analysis-baseline.json"

FIXTURE_CASES = [
    ("ksp001_frozen_mutation.py", "KSP001", 2),
    ("ksp002_unlocked_write.py", "KSP002", 1),
    ("ksp003_blocking_under_lock.py", "KSP003", 1),
    ("ksp004_nondeterminism.py", "KSP004", 2),
    ("ksp005_swallowed_exception.py", "KSP005", 2),
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
    ("ksp010_unregistered", ["KSP010", "KSP010"]),
    ("ksp010_clean", []),
    ("ksp011_unregistered", ["KSP011"]),
    ("ksp011_clean", []),
]


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
            ("serve/cluster.py", "ClusterCoordinator", "skipped_shards"),
        ],
    )
    def test_counter_written_under_a_lock_is_registered(self, scope, cls, attr):
        source = (
            f"# ksp: scope={scope}\n"
            f"class {cls}:\n"
            "    def record(self):\n"
            f"        self.{attr} += 1\n"
        )
        findings = lint_source(source, rules=select_rules(["KSP002"]))
        assert [f.code for f in findings] == ["KSP002"]
        # ... and REPRO_LOCK_DEBUG=1 watches the same attribute.
        watched = {
            (name, attr_)
            for _, name, _, attrs in config.WATCHED_ATTRIBUTES
            for attr_ in attrs
        }
        assert (cls, attr) in watched

    def test_suppressed_fixture_is_clean(self):
        assert lint_paths([FIXTURES / "ksp_suppressed.py"]) == []

    def test_suppression_is_code_specific(self):
        source = (
            "# ksp: scope=serve/supervisor.py\n"
            "def f(w):\n"
            "    try:\n"
            "        w.ping()\n"
            "    except:  # ksp: ignore[KSP001]\n"
            "        pass\n"
        )
        findings = lint_source(source)
        assert [f.code for f in findings] == ["KSP005"]


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

    def test_source_tree_is_clean(self):
        assert lint_paths([SRC]) == []

    def test_source_tree_matches_checked_in_baseline(self):
        """The self-test the ratchet gate relies on: linting src/repro
        must reproduce exactly the counts committed in the baseline."""
        from collections import Counter

        live = Counter(f.code for f in lint_paths([SRC]))
        assert dict(live) == load_baseline(BASELINE)


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

    def test_lint_sarif_format(self, capsys):
        assert main([
            "lint", str(PROJECT_FIXTURES / "ksp008_cycle"),
            "--format", "sarif",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        results = payload["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["KSP008"]

    def test_lint_select(self, capsys):
        assert main([
            "lint", str(FIXTURES), "--select", "KSP006",
        ]) == 1
        out = capsys.readouterr().out
        assert "KSP006" in out and "KSP001" not in out

    def test_lint_ratchet_on_source_tree(self, capsys):
        assert main([
            "lint", str(SRC), "--ratchet", "--baseline", str(BASELINE),
        ]) == 0
        assert "ratchet" in capsys.readouterr().err

    def test_lint_ratchet_rejects_fixture_debt(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", str(FIXTURES), "--ratchet", "--baseline", str(baseline),
        ]) == 1
        assert "rose to" in capsys.readouterr().err
        assert not baseline.exists()  # a failing gate never writes

    def test_lint_write_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", str(FIXTURES / "ksp003_blocking_under_lock.py"),
            "--write-baseline", "--baseline", str(baseline),
        ]) == 0
        capsys.readouterr()
        assert load_baseline(baseline) == {"KSP003": 1}
        # with the debt baselined, the ratchet gate passes
        assert main([
            "lint", str(FIXTURES / "ksp003_blocking_under_lock.py"),
            "--ratchet", "--baseline", str(baseline),
        ]) == 0

    def test_lint_changed_filters_report(self, monkeypatch, capsys):
        import repro.analysis as analysis

        target = (FIXTURES / "ksp003_blocking_under_lock.py").resolve()
        monkeypatch.setattr(analysis, "changed_files", lambda ref: {target})
        assert main(["lint", str(FIXTURES), "--changed"]) == 1
        out = capsys.readouterr().out
        assert "KSP003" in out and "KSP001" not in out

    def test_lint_changed_falls_back_without_git(self, monkeypatch, capsys):
        import repro.analysis as analysis

        def no_git(ref):
            raise RuntimeError("git unusable")

        monkeypatch.setattr(analysis, "changed_files", no_git)
        assert main(["lint", str(FIXTURES), "--changed"]) == 1
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "KSP001" in captured.out  # full report, not silently empty

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_typecheck_soft_skip_without_mypy(self, capsys):
        from repro.analysis.typecheck import EXIT_UNAVAILABLE, mypy_available

        code = main(["typecheck", str(SRC)])
        if mypy_available():  # pragma: no cover - dev box with mypy
            assert code in (0, 1)
        else:
            assert code == 0
            assert "SKIPPED" in capsys.readouterr().err
            assert main(["typecheck", str(SRC), "--require"]) == EXIT_UNAVAILABLE
