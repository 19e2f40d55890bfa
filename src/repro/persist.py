"""Index persistence: save and load built K-SPIN instances.

The paper builds the full US keyword-separated index in 1.5 hours and
serves queries from memory; a production deployment needs to persist
that work across restarts.  This module pickles a complete
:class:`~repro.core.framework.KSpin` (keyword-separated index, ALT
tables, relevance model, and the plugged-in distance oracle) behind a
small versioned header so stale files fail loudly instead of loading
garbage.

Security note: pickle executes code on load — only load index files you
produced yourself.
"""

from __future__ import annotations

import os
import pickle
import tempfile

from repro.core.framework import KSpin

#: File magic + schema version; bump when on-disk layout changes.
MAGIC = b"KSPIN-INDEX"
VERSION = 2


class PersistenceError(RuntimeError):
    """Raised for malformed or incompatible index files."""


def save_kspin_bytes(kspin: KSpin) -> bytes:
    """The framed on-disk representation of ``kspin`` as a byte string.

    Same header + payload layout :func:`save_kspin` writes; useful when
    the index travels over a pipe or socket instead of the filesystem
    (e.g. rehydrating a spawned cluster worker).
    """
    payload = pickle.dumps(kspin, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        MAGIC
        + VERSION.to_bytes(2, "big")
        + len(payload).to_bytes(8, "big")
        + payload
    )


def load_kspin_bytes(data: bytes, source: str = "<bytes>") -> KSpin:
    """Decode a framed representation produced by :func:`save_kspin_bytes`."""
    if data[: len(MAGIC)] != MAGIC:
        raise PersistenceError(f"{source!r} is not a K-SPIN index image")
    version = int.from_bytes(data[len(MAGIC) : len(MAGIC) + 2], "big")
    if version != VERSION:
        raise PersistenceError(
            f"{source!r} has schema version {version}, expected {VERSION}"
        )
    declared = int.from_bytes(data[len(MAGIC) + 2 : len(MAGIC) + 10], "big")
    payload = data[len(MAGIC) + 10 :]
    if len(payload) != declared:
        raise PersistenceError(
            f"{source!r} is truncated: declared {declared} bytes, "
            f"found {len(payload)}"
        )
    kspin = pickle.loads(payload)
    if not isinstance(kspin, KSpin):
        raise PersistenceError(f"{source!r} did not contain a KSpin instance")
    return kspin


def save_kspin(kspin: KSpin, path: str) -> int:
    """Serialise a built K-SPIN instance to ``path``.

    Returns the number of bytes written.  The graph, dataset, keyword
    index, lower bounder, relevance model, and distance oracle are all
    included, so :func:`load_kspin` yields a ready-to-query object.

    The write is **atomic**: bytes go to a temp file in the same
    directory which is ``os.replace``-d over ``path`` only after a
    successful flush-and-fsync, so a crash mid-save (or two concurrent
    saves) can never leave a truncated index for a booting server —
    readers see either the old complete file or the new complete file.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    framed = save_kspin_bytes(kspin)
    fd, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp",
        dir=directory or ".",
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(framed)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return len(framed)


def load_kspin(path: str) -> KSpin:
    """Load a K-SPIN instance previously saved with :func:`save_kspin`."""
    with open(path, "rb") as handle:
        data = handle.read()
    return load_kspin_bytes(data, source=path)
