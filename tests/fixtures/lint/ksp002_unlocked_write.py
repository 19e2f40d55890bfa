"""Seeded KSP002 violations: shared state written outside its lock."""

import threading


class Counters:
    _guarded_by = {"_lock": ("served",)}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.served = 0  # fine: construction, the object is not shared yet
        self.shed = 0

    def record_served(self) -> None:
        self.served += 1  # violation: the declared lock is not held

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1  # fine: under a lock

    def reset_shed(self) -> None:
        self.shed = 0  # violation: written under a lock elsewhere, bare here
