"""Child processes and the keep-alive HTTP client that drives a server child.

``ServeClient`` (the repo's load generator) opens a new TCP connection per
request, which hides what a persistent HTTP/1.1 client sees; this client
keeps one ``http.client`` connection open with ``TCP_NODELAY`` and has one
request in flight.

Every child is started in its own session and killed through its process
group on every exit path: a server that outlives the runner would hold a
core for the next run.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from urllib.parse import urlparse

#: The checkout this benchmark sits in, and the program it measures.
ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir)
)
SRC = os.path.join(ROOT, "src")
BOOT_TIMEOUT = 60.0


def child_environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part
    )
    # The boot line carries the URL; a block-buffered pipe would hold it.
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """A python child in its own process group, stopped on ``close``."""

    def __init__(self, argv: list[str]) -> None:
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            env=child_environment(),
            start_new_session=True,
            text=True,
        )

    def read_line(self, prefix: str) -> str:
        """Block until the child prints a line containing ``prefix``."""
        deadline = time.monotonic() + BOOT_TIMEOUT
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"child exited ({self.process.poll()}) before printing {prefix!r}"
                )
            if prefix in line:
                return line
        raise RuntimeError(f"child did not print {prefix!r} in {BOOT_TIMEOUT}s")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the child: its peak resident set so far."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def close(self, grace: float = 10.0) -> None:
        """SIGTERM the group, wait, then SIGKILL; returns once it has ended."""
        if self.process.poll() is None:
            for signum in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(self.process.pid, signum)
                except ProcessLookupError:
                    break
                try:
                    self.process.wait(timeout=grace)
                    break
                except subprocess.TimeoutExpired:
                    continue
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ServerChild(Child):
    """``repro serve`` on port 0; the URL is read from its boot line."""

    def __init__(self, argv: list[str]) -> None:
        super().__init__(argv)
        try:
            line = self.read_line("Serving ")
            self.url = line.rsplit(" on ", 1)[1].strip()
        except BaseException:
            self.close()
            raise


class KeepAliveClient:
    """One persistent HTTP/1.1 connection, one request in flight."""

    def __init__(self, url: str, keep_alive: bool = True) -> None:
        parsed = urlparse(url)
        self._address = (parsed.hostname, parsed.port)
        self._keep_alive = keep_alive
        self._connection: http.client.HTTPConnection | None = None

    def _connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(*self._address, timeout=60)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def post(self, path: str, body: bytes) -> tuple[int, dict]:
        """One round trip: ``(status, decoded JSON envelope)``."""
        if self._connection is None:
            self._connection = self._connect()
        headers = {"Content-Type": "application/json"}
        if not self._keep_alive:
            headers["Connection"] = "close"
        self._connection.request("POST", path, body=body, headers=headers)
        response = self._connection.getresponse()
        payload = json.loads(response.read())
        if not self._keep_alive:
            self.close()
        return response.status, payload

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
