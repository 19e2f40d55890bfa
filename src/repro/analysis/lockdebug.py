"""Runtime lock-order and race detection (``REPRO_LOCK_DEBUG=1``).

The static rules in :mod:`repro.analysis.rules` see one function at a
time; deadlocks are a *global* property of acquisition order across
threads.  This module closes the gap with an opt-in runtime mode:

* every instrumented lock acquisition records the acquiring thread's
  call site and adds a ``held -> acquired`` edge to a global
  **lock-order graph**; a cycle in that graph is a potential deadlock,
  reported with the ``file:line`` of *both* acquisition sites on every
  edge of the cycle;
* the shared attributes a serving class declares beside its lock
  (``_guarded_by = {"_lock": ("hits", ...)}``, the same declaration
  KSP002 reads) can be wrapped in write-guard descriptors that report
  any write performed while the declared lock is not held by the
  writing thread.

Zero cost when off: :func:`make_lock` returns a plain
``threading.Lock``/``RLock`` unless debugging was enabled *before* the
lock was created, so the serving hot path never pays for the
instrumentation it is not using.  Enable with the environment variable
``REPRO_LOCK_DEBUG=1`` (read at import) or programmatically via
:func:`enable` before constructing engines.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Iterator

__all__ = [
    "DebugLock",
    "cycles",
    "disable",
    "enable",
    "enabled",
    "held_locks",
    "instrument",
    "make_lock",
    "note_acquire",
    "note_release",
    "report",
    "reset",
    "uninstrument",
    "violations",
]

_state_lock = threading.Lock()
_enabled = os.environ.get("REPRO_LOCK_DEBUG", "") not in ("", "0", "false")
_holder = threading.local()

#: (held lock id, acquired lock id) -> (held name, held site,
#:  acquired name, acquired site) — the first observation wins, so
#: reports point at the code path that introduced the ordering.
_edges: dict[tuple[int, int], tuple[str, str, str, str]] = {}
#: lock id -> name (for cycle rendering after locks are garbage).
_names: dict[int, str] = {}
#: recorded guarded-write violations, as rendered report lines.
_violations: list[str] = []
#: classes instrumented by :func:`instrument`, for :func:`uninstrument`.
_patched: list[tuple[type, str, object]] = []


# ----------------------------------------------------------------------
# Mode switches
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Whether lock debugging is currently on."""
    return _enabled


def enable(fresh: bool = True) -> None:
    """Turn lock debugging on (call *before* constructing engines)."""
    global _enabled
    if fresh:
        reset()
    _enabled = True


def disable() -> None:
    """Turn lock debugging off (recorded state is kept until reset)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop every recorded edge, violation, and per-thread held stack."""
    with _state_lock:
        _edges.clear()
        _names.clear()
        _violations.clear()
    _holder.__dict__.pop("held", None)


# ----------------------------------------------------------------------
# Acquisition bookkeeping
# ----------------------------------------------------------------------
def _held_stack() -> list[tuple[int, str, str]]:
    stack = getattr(_holder, "held", None)
    if stack is None:
        stack = []
        _holder.held = stack
    return stack


def _call_site() -> str:
    """``file:line`` of the nearest frame outside the lock machinery."""
    import sys

    frame = sys._getframe(1)
    while frame is not None:
        basename = os.path.basename(frame.f_code.co_filename)
        if basename not in ("lockdebug.py", "locks.py"):
            return f"{basename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def held_locks() -> frozenset[int]:
    """Ids of the locks the calling thread currently holds."""
    return frozenset(lock_id for lock_id, _, _ in _held_stack())


def note_acquire(lock: object, name: str | None = None) -> None:
    """Record that the calling thread acquired ``lock`` (debug mode)."""
    if not _enabled:
        return
    site = _call_site()
    label = name or f"lock@{id(lock):x}"
    stack = _held_stack()
    with _state_lock:
        _names[id(lock)] = label
        for held_id, held_name, held_site in stack:
            if held_id == id(lock):
                continue  # re-entrant acquisition: no self edges
            edge = (held_id, id(lock))
            if edge not in _edges:
                _edges[edge] = (held_name, held_site, label, site)
    stack.append((id(lock), label, site))


def note_release(lock: object) -> None:
    """Record that the calling thread released ``lock`` (debug mode)."""
    if not _enabled:
        return
    stack = _held_stack()
    for index in range(len(stack) - 1, -1, -1):
        if stack[index][0] == id(lock):
            del stack[index]
            return


def note_guard_violation(message: str) -> None:
    """Record one guarded-write violation (used by the descriptors)."""
    with _state_lock:
        _violations.append(message)


# ----------------------------------------------------------------------
# Cycle detection / reporting
# ----------------------------------------------------------------------
def _adjacency() -> dict[int, list[int]]:
    graph: dict[int, list[int]] = {}
    for source, target in _edges:
        graph.setdefault(source, []).append(target)
    return graph


def cycles() -> list[list[tuple[int, int]]]:
    """Every elementary cycle in the observed lock-order graph.

    Each cycle is a list of edges ``(held_id, acquired_id)``; render
    with :func:`report`.  Detection is a DFS per node — the graphs here
    are tiny (one node per lock object).
    """
    with _state_lock:
        graph = _adjacency()
        found: list[list[tuple[int, int]]] = []
        seen_cycles: set[frozenset[tuple[int, int]]] = set()
        for start in graph:
            path: list[int] = [start]
            edge_path: list[tuple[int, int]] = []

            def dfs(node: int) -> None:
                for target in graph.get(node, ()):
                    edge = (node, target)
                    if target == start:
                        cycle = edge_path + [edge]
                        key = frozenset(cycle)
                        if key not in seen_cycles:
                            seen_cycles.add(key)
                            found.append(cycle)
                        continue
                    if target in path:
                        continue
                    path.append(target)
                    edge_path.append(edge)
                    dfs(target)
                    edge_path.pop()
                    path.pop()

            dfs(start)
        return found


def violations() -> list[str]:
    """Guarded-write violations recorded so far."""
    with _state_lock:
        return list(_violations)


def report() -> str:
    """Human-readable report: every cycle edge with both ``file:line``
    acquisition sites, plus any guarded-write violations."""
    lines: list[str] = []
    found = cycles()
    with _state_lock:
        edges = dict(_edges)
    for cycle in found:
        lines.append("potential deadlock (lock-order cycle):")
        for held_id, acquired_id in cycle:
            held_name, held_site, acq_name, acq_site = edges[
                (held_id, acquired_id)
            ]
            lines.append(
                f"  holding {held_name!r} (acquired at {held_site}) "
                f"-> acquires {acq_name!r} at {acq_site}"
            )
    for violation in violations():
        lines.append(f"unguarded write: {violation}")
    if not lines:
        return "lock debug: no ordering cycles, no unguarded writes"
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Instrumented locks
# ----------------------------------------------------------------------
class DebugLock:
    """A ``threading.Lock``/``RLock`` that reports to the order graph."""

    __slots__ = ("_inner", "name")

    def __init__(self, name: str, rlock: bool = False) -> None:
        self._inner: Any = (
            threading.RLock() if rlock else threading.Lock()
        )
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            note_acquire(self, self.name)
        return acquired

    def release(self) -> None:
        note_release(self)
        self._inner.release()

    def __enter__(self) -> "DebugLock":
        self.acquire()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()


def make_lock(name: str, rlock: bool = False) -> Any:
    """A lock for serving shared state: plain when debug is off.

    The type is decided at *creation* time, so enabling debug after an
    engine is built does not instrument its existing locks — enable
    first (env var or :func:`enable`), then construct.
    """
    if _enabled:
        return DebugLock(name, rlock=rlock)
    return threading.RLock() if rlock else threading.Lock()


# ----------------------------------------------------------------------
# Guarded-attribute descriptors (runtime half of KSP002)
# ----------------------------------------------------------------------
class GuardedAttribute:
    """Data descriptor reporting writes made without the declared lock.

    The first write (object construction) is exempt; later writes check
    that the instance's ``lock_attr`` — when it is an instrumented
    :class:`DebugLock` or a ``ReadWriteLock`` built in debug mode — is
    in the writing thread's held set.
    """

    def __init__(self, attr: str, lock_attr: str) -> None:
        self.attr = attr
        self.lock_attr = lock_attr
        self._slot = f"_ksp_guarded_{attr}"

    def __get__(self, obj: object, objtype: type | None = None) -> Any:
        if obj is None:
            return self
        try:
            return obj.__dict__[self._slot]
        except KeyError:
            raise AttributeError(self.attr) from None

    def __set__(self, obj: object, value: Any) -> None:
        if _enabled and self._slot in obj.__dict__:
            lock = getattr(obj, self.lock_attr, None)
            debugged = isinstance(lock, DebugLock) or getattr(lock, "_debug", False)
            if debugged and id(lock) not in held_locks():
                note_guard_violation(
                    f"{type(obj).__name__}.{self.attr} written at "
                    f"{_call_site()} without holding "
                    f"{self.lock_attr!r} ({getattr(lock, 'name', '?')})"
                )
        obj.__dict__[self._slot] = value

    def __delete__(self, obj: object) -> None:
        obj.__dict__.pop(self._slot, None)


def instrument() -> list[str]:
    """Install write guards over every declared shared attribute.

    Imports each :mod:`repro.serve` module and, for every class there
    with a ``_guarded_by`` declaration, replaces each listed attribute
    with a :class:`GuardedAttribute` checking the lock it is listed
    under.  Call it before constructing the instances to watch.
    Returns the ``Class.attr`` names instrumented; undo with
    :func:`uninstrument`.
    """
    import importlib
    import pkgutil

    import repro.serve

    installed: list[str] = []
    for info in pkgutil.iter_modules(repro.serve.__path__, "repro.serve."):
        module = importlib.import_module(info.name)
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for lock_attr, attrs in vars(cls).get("_guarded_by", {}).items():
                for attr in attrs:
                    _patched.append((cls, attr, cls.__dict__.get(attr)))
                    setattr(cls, attr, GuardedAttribute(attr, lock_attr))
                    installed.append(f"{cls.__name__}.{attr}")
    return installed


def uninstrument() -> None:
    """Remove every descriptor installed by :func:`instrument`."""
    while _patched:
        cls, attr, previous = _patched.pop()
        if previous is None:
            if attr in cls.__dict__:
                delattr(cls, attr)
        else:
            setattr(cls, attr, previous)


def _iter_edges() -> Iterator[tuple[str, str, str, str]]:  # pragma: no cover
    """Debug helper: the observed edges with names and sites."""
    with _state_lock:
        yield from _edges.values()
