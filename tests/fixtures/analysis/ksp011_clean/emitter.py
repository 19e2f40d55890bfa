# ksp: scope=serve/ipc.py
"""Clean twin of the KSP011 fixture: every branch is observed or exempt.

``"flush"`` reaches an event through a helper, ``"reindex"`` opens a
span itself, and the liveness probe carries a deliberate exemption.
"""

from repro.obs.events import EVENTS
from repro.obs.trace import span


def _flush(store: dict) -> int:
    EVENTS.emit("store.flush", entries=len(store))
    store.clear()
    return 0


def dispatch(kind: str, store: dict) -> int:
    if kind == "flush":
        return _flush(store)
    elif kind == "reindex":
        with span("store.reindex"):
            store.clear()
        return 0
    elif kind == "ping":  # ksp: ignore[KSP011] liveness probe
        return 1
    return -1
