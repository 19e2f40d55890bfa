"""Session-wide runtime lock checking under ``REPRO_LOCK_DEBUG=1``.

With the variable set, every shared attribute a serving class declares
in ``_guarded_by`` is write-guarded for the whole run, and the run
fails — printing ``lockdebug.report()`` — when any test recorded a
lock-order cycle or an unguarded write, even if every test passed.
"""

from __future__ import annotations

import pytest

from repro.analysis import lockdebug


def pytest_sessionstart(session: pytest.Session) -> None:
    if lockdebug.enabled():
        lockdebug.instrument()


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    if not lockdebug.enabled():
        return
    if lockdebug.cycles() or lockdebug.violations():
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_sep("=", "REPRO_LOCK_DEBUG", red=True)
            reporter.write_line(lockdebug.report())
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
