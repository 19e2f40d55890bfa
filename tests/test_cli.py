"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build"])

    def test_query_defaults(self):
        args = build_parser().parse_args(
            ["query", "--index", "x", "--vertex", "3", "--keywords", "a", "b"]
        )
        assert args.kind == "bknn"
        assert args.k == 10
        assert args.keywords == ["a", "b"]

    def test_bad_oracle_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["build", "--out", "x", "--oracle", "warp-drive"]
            )


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        output = capsys.readouterr().out
        assert "DE-S" in output
        assert "US-S" in output

    def test_build_and_query_roundtrip(self, tmp_path, capsys):
        index = str(tmp_path / "test.kspin")
        assert main(
            ["build", "--dataset", "DE-S", "--oracle", "dijkstra",
             "--landmarks", "4", "--out", index]
        ) == 0
        assert main(
            ["query", "--index", index, "--vertex", "0",
             "--keywords", "kw0000", "--kind", "bknn", "--k", "3"]
        ) == 0
        output = capsys.readouterr().out
        assert "distance=" in output
        assert "exact distances" in output

    def test_query_conjunctive_and_topk(self, tmp_path, capsys):
        index = str(tmp_path / "test.kspin")
        main(["build", "--dataset", "DE-S", "--oracle", "dijkstra",
              "--landmarks", "4", "--out", index])
        assert main(
            ["query", "--index", index, "--vertex", "5",
             "--keywords", "kw0000", "kw0001", "--kind", "bknn-and"]
        ) == 0
        assert main(
            ["query", "--index", index, "--vertex", "5",
             "--keywords", "kw0000", "--kind", "topk", "--k", "2"]
        ) == 0

    def test_query_no_matches(self, tmp_path, capsys):
        index = str(tmp_path / "test.kspin")
        main(["build", "--dataset", "DE-S", "--oracle", "dijkstra",
              "--landmarks", "4", "--out", index])
        assert main(
            ["query", "--index", index, "--vertex", "0",
             "--keywords", "never-a-keyword"]
        ) == 0
        assert "no matching objects" in capsys.readouterr().out

    def test_dimacs_build_requires_documents(self, tmp_path, capsys):
        from repro.graph import perturbed_grid_network, write_dimacs

        gr = str(tmp_path / "g.gr")
        write_dimacs(perturbed_grid_network(4, 4, seed=1), gr)
        assert main(["build", "--gr", gr, "--out", str(tmp_path / "o")]) == 2

    def test_dimacs_build_with_documents(self, tmp_path, capsys):
        from repro.graph import perturbed_grid_network, write_dimacs

        gr = str(tmp_path / "g.gr")
        co = str(tmp_path / "g.co")
        write_dimacs(perturbed_grid_network(4, 4, seed=1), gr, co)
        documents = tmp_path / "docs.py"
        documents.write_text("{0: ['cafe'], 5: ['cafe', 'bar'], 10: ['bar']}")
        index = str(tmp_path / "d.kspin")
        assert main(
            ["build", "--gr", gr, "--co", co, "--documents", str(documents),
             "--oracle", "dijkstra", "--landmarks", "2", "--out", index]
        ) == 0
        assert main(
            ["query", "--index", index, "--vertex", "0", "--keywords", "bar"]
        ) == 0
        assert "vertex 5" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 4
        assert args.cache_size == 1024
        assert args.dataset == "ME-S"

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--index", "x.kspin", "--host", "0.0.0.0",
             "--port", "9000", "--workers", "16", "--cache-size", "0"]
        )
        assert args.index == "x.kspin"
        assert args.workers == 16
        assert args.cache_size == 0

    def test_serve_index_and_dataset_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--index", "x", "--dataset", "DE-S"]
            )

    def test_query_stats_flag_prints_cost_model(self, tmp_path, capsys):
        index = str(tmp_path / "test.kspin")
        main(["build", "--dataset", "DE-S", "--oracle", "dijkstra",
              "--landmarks", "4", "--out", index])
        assert main(
            ["query", "--index", index, "--vertex", "0",
             "--keywords", "kw0000", "--stats"]
        ) == 0
        output = capsys.readouterr().out
        assert "cost model" in output
        assert "iterations (kappa)" in output
        assert "heap insertions" in output

    def test_serve_boots_on_ladder_dataset(self, tmp_path):
        """`python -m repro serve` starts, answers HTTP, and shuts down."""
        import json
        import re
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--dataset", "DE-S", "--oracle", "dijkstra",
             "--landmarks", "4", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            url = None
            deadline = time.time() + 120
            while time.time() < deadline:
                line = process.stdout.readline()
                match = re.search(r"on (http://\S+)", line or "")
                if match:
                    url = match.group(1)
                    break
            assert url, "server never announced its URL"
            with urllib.request.urlopen(
                f"{url}/v1/query?vertex=0&k=2&keywords=kw0000", timeout=30
            ) as response:
                body = json.loads(response.read())
            assert body["ok"] is True
            assert len(body["result"]["results"]) == 2
            with urllib.request.urlopen(f"{url}/v1/healthz", timeout=30) as response:
                health = json.loads(response.read())
            assert health["result"]["status"] == "ok"
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


class TestStaticAnalysisVerbs:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_help_epilog_mentions_analysis_verbs(self):
        parser = build_parser()
        help_text = parser.format_help()
        assert "repro lint" in help_text
        assert "mypy" in help_text
        assert "docs/static-analysis.md" in help_text

    def test_lint_verb_clean_tree(self, capsys):
        import pathlib

        src = pathlib.Path(__file__).parent.parent / "src" / "repro"
        assert main(["lint", str(src)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_verb_flags_fixture(self, capsys):
        import pathlib

        fixtures = pathlib.Path(__file__).parent / "fixtures" / "lint"
        assert main(["lint", str(fixtures / "ksp003_blocking_under_lock.py")]) == 1
        captured = capsys.readouterr()
        assert "KSP003" in captured.out
        assert "finding" in captured.err

    def test_typing_gates_are_not_wrapped(self, capsys):
        # mypy and ruff run directly; the CLI only owns the KSP linter.
        with pytest.raises(SystemExit):
            main(["typecheck"])
        with pytest.raises(SystemExit):
            main(["lint", "--ratchet"])
        capsys.readouterr()
