# ksp: scope=serve/supervisor.py
"""Seeded KSP005 violation: a swallowed exception in the IPC tier."""


def fan_out(handles: list[object]) -> None:
    for handle in handles:
        try:
            handle.request("update")  # type: ignore[attr-defined]
        except Exception:  # violation: silently swallowed
            pass
