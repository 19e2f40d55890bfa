"""Tests for the runtime lock-order graph and write guards.

The acceptance gate for this subsystem: provoking an inverted
acquisition order across two threads must produce a cycle report that
names *both* acquisition sites as ``file:line`` in this test file — and
a ``REPRO_LOCK_DEBUG=1`` test run that records one must fail.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import lockdebug
from repro.analysis.lockdebug import DebugLock, GuardedAttribute, make_lock


ROOT = Path(__file__).parent.parent


@pytest.fixture(autouse=True)
def _clean_lockdebug():
    """Every test starts disabled with an empty graph and no patches.

    Afterwards the state the test found comes back: under
    ``REPRO_LOCK_DEBUG=1`` the session's mode, its write guards and
    whatever it recorded so far are ``tests/conftest.py``'s to judge.
    """
    was_enabled = lockdebug.enabled()
    was_instrumented = bool(lockdebug._patched)
    recorded = (
        dict(lockdebug._edges), dict(lockdebug._names), list(lockdebug._violations)
    )
    lockdebug.uninstrument()
    lockdebug.disable()
    lockdebug.reset()
    yield
    lockdebug.uninstrument()
    lockdebug.reset()
    lockdebug._edges.update(recorded[0])
    lockdebug._names.update(recorded[1])
    lockdebug._violations.extend(recorded[2])
    if was_enabled:
        lockdebug.enable(fresh=False)
    else:
        lockdebug.disable()
    if was_instrumented:
        lockdebug.instrument()


def _env(**extra: str) -> dict[str, str]:
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])
    )
    return env


def test_make_lock_is_plain_when_disabled() -> None:
    lock = make_lock("plain")
    assert not isinstance(lock, DebugLock)
    with lock:  # still a working context manager
        pass
    rlock = make_lock("plain.r", rlock=True)
    with rlock:
        with rlock:  # re-entrant
            pass


def test_make_lock_is_instrumented_when_enabled() -> None:
    lockdebug.enable()
    lock = make_lock("debugged")
    assert isinstance(lock, DebugLock)
    with lock:
        assert id(lock) in lockdebug.held_locks()
    assert id(lock) not in lockdebug.held_locks()


def test_nested_acquisition_records_an_edge_with_sites() -> None:
    lockdebug.enable()
    outer = make_lock("outer")
    inner = make_lock("inner")
    with outer:
        with inner:
            pass
    (edge,) = list(lockdebug._iter_edges())
    held_name, held_site, acq_name, acq_site = edge
    assert (held_name, acq_name) == ("outer", "inner")
    assert held_site.startswith("test_lockdebug.py:")
    assert acq_site.startswith("test_lockdebug.py:")


def test_inverted_order_reports_cycle_naming_both_sites() -> None:
    """Thread 1 takes A then B; thread 2 takes B then A: a 2-cycle."""
    lockdebug.enable()
    lock_a = make_lock("cluster.update")
    lock_b = make_lock("cache")
    first_done = threading.Event()

    def thread_one() -> None:
        with lock_a:
            with lock_b:  # A -> B edge recorded here
                pass
        first_done.set()

    def thread_two() -> None:
        first_done.wait(timeout=5)
        with lock_b:
            with lock_a:  # B -> A edge: inverted order
                pass

    t1 = threading.Thread(target=thread_one)
    t2 = threading.Thread(target=thread_two)
    t1.start()
    t2.start()
    t1.join(timeout=5)
    t2.join(timeout=5)

    assert len(lockdebug.cycles()) == 1
    report = lockdebug.report()
    assert "potential deadlock (lock-order cycle):" in report
    assert "'cluster.update'" in report and "'cache'" in report
    # Both acquisition sites are named file:line, pointing into this test.
    sites = [
        part.split(")")[0]
        for part in report.split("acquired at ")[1:]
    ]
    assert len(sites) == 2
    for site in sites:
        filename, _, line = site.partition(":")
        assert filename == "test_lockdebug.py"
        assert line.isdigit() and int(line) > 0
    # The inner acquisition sites are named too.
    assert report.count("test_lockdebug.py:") == 4


def test_consistent_order_reports_no_cycle() -> None:
    lockdebug.enable()
    lock_a = make_lock("a")
    lock_b = make_lock("b")
    for _ in range(3):
        with lock_a:
            with lock_b:
                pass
    assert lockdebug.cycles() == []
    assert "no ordering cycles" in lockdebug.report()


def test_reentrant_acquisition_is_not_a_self_cycle() -> None:
    lockdebug.enable()
    lock = make_lock("r", rlock=True)
    with lock:
        with lock:
            pass
    assert lockdebug.cycles() == []


def test_rwlock_participates_in_order_graph() -> None:
    from repro.serve.locks import ReadWriteLock

    lockdebug.enable()
    mutex = make_lock("m")
    rw = ReadWriteLock(name="engine.rwlock")
    with mutex:
        with rw.write():
            pass
    (edge,) = list(lockdebug._iter_edges())
    assert edge[0] == "m" and edge[2] == "engine.rwlock:write"


def test_guarded_attribute_flags_unlocked_write() -> None:
    lockdebug.enable()

    class Stats:
        shed = GuardedAttribute("shed", "_lock")

        def __init__(self) -> None:
            self._lock = make_lock("stats")
            self.shed = 0  # first write: construction, exempt

    stats = Stats()
    assert lockdebug.violations() == []
    with stats._lock:
        stats.shed += 1  # guarded: fine
    assert lockdebug.violations() == []
    stats.shed += 1  # unguarded: flagged
    (violation,) = lockdebug.violations()
    assert "Stats.shed" in violation
    assert "'_lock'" in violation
    assert "test_lockdebug.py:" in violation
    assert "unguarded write" in lockdebug.report()


def test_instrument_watches_real_server_metrics() -> None:
    lockdebug.enable()
    installed = lockdebug.instrument()
    assert "ServerMetrics.shed" in installed
    # every class declares its own shared state beside its lock
    assert {
        "ResultCache.hits", "ResultCache.invalidations",
        "ClusterCoordinator.dispatches", "ClusterCoordinator.short_circuits",
        "Engine.updates_applied",
    } <= set(installed)
    try:
        from repro.serve.metrics import ServerMetrics

        metrics = ServerMetrics()  # lock is a DebugLock: enable() preceded it
        metrics.record_shed()  # takes its own lock: clean
        assert lockdebug.violations() == []
        metrics.shed += 1  # direct unlocked write: flagged
        assert any(
            "ServerMetrics.shed" in v for v in lockdebug.violations()
        )
    finally:
        lockdebug.uninstrument()
    # after uninstrument, plain attribute semantics return
    from repro.serve.metrics import ServerMetrics as Restored

    assert not isinstance(Restored.__dict__.get("shed"), GuardedAttribute)


def test_instrument_watches_rate_limiter() -> None:
    lockdebug.enable()
    installed = lockdebug.instrument()
    assert {
        "ClientRateLimiter.allowed", "ClientRateLimiter.limited",
        "ClientRateLimiter._buckets",
    } <= set(installed)
    try:
        from repro.serve.ratelimit import ClientRateLimiter

        limiter = ClientRateLimiter(rate=1.0, capacity=1.0)
        limiter.check("a")  # takes its own lock: clean
        limiter.check("a")
        assert lockdebug.violations() == []
        limiter.limited += 1  # direct unlocked write: flagged
        assert any(
            "ClientRateLimiter.limited" in v for v in lockdebug.violations()
        )
    finally:
        lockdebug.uninstrument()


def test_env_var_enables_at_import() -> None:
    """REPRO_LOCK_DEBUG=1 turns the mode on in a fresh interpreter."""
    code = (
        "from repro.analysis import lockdebug\n"
        "from repro.analysis.lockdebug import make_lock, DebugLock\n"
        "assert lockdebug.enabled()\n"
        "assert isinstance(make_lock('x'), DebugLock)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(REPRO_LOCK_DEBUG="1"), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_serving_does_not_import_the_linter() -> None:
    code = (
        "import sys\n"
        "import repro.serve\n"
        "assert 'repro.analysis.lockdebug' in sys.modules\n"
        "assert 'repro.analysis.linter' not in sys.modules, sorted(sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_debug_run_fails_on_a_recorded_inversion(tmp_path: Path) -> None:
    """Every test passing is not enough under REPRO_LOCK_DEBUG=1: a run
    in which two threads took two locks in opposite orders fails."""
    (tmp_path / "test_inversion.py").write_text(
        "import threading\n"
        "from repro.analysis.lockdebug import make_lock\n"
        "\n"
        "def test_opposite_orders():\n"
        "    first, second = make_lock('first'), make_lock('second')\n"
        "    def forward():\n"
        "        with first:\n"
        "            with second:\n"
        "                pass\n"
        "    def backward():\n"
        "        with second:\n"
        "            with first:\n"
        "                pass\n"
        "    for target in (forward, backward):\n"
        "        thread = threading.Thread(target=target)\n"
        "        thread.start()\n"
        "        thread.join()\n"
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-p", "tests.conftest", "test_inversion.py",
        ],
        cwd=tmp_path, env=_env(REPRO_LOCK_DEBUG="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert "1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert "potential deadlock" in proc.stdout, proc.stdout
    assert proc.returncode != 0
