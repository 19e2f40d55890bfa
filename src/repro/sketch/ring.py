"""Process-stable hashing.

Every sketch (and the keyword-shard router) needs hashes that agree
*across process generations*: Python's builtin ``hash`` is randomised
per process, so a rehydrated worker would disagree with its parent
about keyword ownership and Bloom bit positions.  This module is the
single home for process-stable hashing:

* :func:`stable_hash` — CRC-32 of the UTF-8 bytes, the cheap 32-bit
  hash behind keyword→shard ownership (kept bit-compatible with the
  historical ``repro.serve.placement.shard_of`` formula).
* :func:`stable_hash64` — a 64-bit BLAKE2b hash for sketches that need
  more entropy than CRC-32 offers (HyperLogLog register selection,
  Bloom double hashing).
"""

from __future__ import annotations

import hashlib
import zlib

__all__ = ["stable_hash", "stable_hash64"]


def stable_hash(key: str) -> int:
    """Process-stable 32-bit hash of ``key`` (CRC-32 of UTF-8 bytes)."""
    return zlib.crc32(key.encode("utf-8"))


def stable_hash64(key: str, salt: str = "") -> int:
    """Process-stable 64-bit hash of ``key`` (BLAKE2b, optional salt)."""
    digest = hashlib.blake2b(
        key.encode("utf-8"), digest_size=8, salt=salt.encode("utf-8")[:16]
    ).digest()
    return int.from_bytes(digest, "big")
