# ksp: scope=serve/ipc.py
"""Seeded KSP011 violation: a pipe message kind nothing observes.

The ``"reindex"`` branch does real work but opens no span and emits no
event, neither itself nor in anything it calls: an operator cannot see
it in a trace or in the flight recorder.
"""

from repro.obs.events import EVENTS


def _flush(store: dict) -> int:
    EVENTS.emit("store.flush", entries=len(store))
    store.clear()
    return 0


def _reindex(store: dict) -> int:
    store.clear()
    return 0


def dispatch(kind: str, store: dict) -> int:
    if kind == "flush":
        return _flush(store)  # fine: observed through the call graph
    elif kind == "reindex":  # violation: reaches no span or event
        return _reindex(store)
    return -1
