"""A mergeable Bloom filter (per-shard keyword membership).

The sharded cluster asks one question per query keyword: *can shard s
hold any object for keyword t?*  A Bloom filter answers it in O(k)
hash probes over an O(KB) bit array with **no false negatives** — a
"no" is a proof of absence, so routing may skip the shard without any
recall risk; a false positive merely dispatches a sub-query that
returns empty (wasted work, never a wrong answer).

Design notes
------------
* **Double hashing** (Kirsch–Mitzenmacher): the ``i``-th probe is
  ``h1 + i * h2 (mod m)`` over two independent 64-bit BLAKE2b halves,
  so ``k`` probes cost one digest.
* **Mergeable**: two filters built with identical geometry OR their
  bit arrays; ``merge`` is *exactly* equivalent to having built one
  filter from the union of both key sets (bit-identical payloads).
* **Deletion-free**: keys cannot be removed.  The serving layer treats
  a deleted keyword's lingering bits as a false positive — extra work,
  never a missed result — and refreshes the filter on diagram rebuilds.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

from repro.sketch.ring import stable_hash64

__all__ = ["BloomFilter"]

#: Geometry keys that must agree for two filters to merge.
_GEOMETRY = ("num_bits", "num_hashes")


class BloomFilter:
    """A fixed-geometry Bloom filter over string keys.

    Parameters
    ----------
    num_bits:
        Bit-array size ``m`` (rounded up to a whole byte internally).
    num_hashes:
        Probes per key ``k``.

    Prefer :meth:`with_capacity`, which derives the optimal geometry
    from an expected key count and a target false-positive rate.
    """

    __slots__ = ("num_bits", "num_hashes", "count", "_bits")

    def __init__(self, num_bits: int = 1024, num_hashes: int = 7) -> None:
        if num_bits < 8:
            raise ValueError("num_bits must be at least 8")
        if num_hashes < 1:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.count = 0  # keys added (an upper bound after merges)
        self._bits = bytearray((num_bits + 7) // 8)

    @classmethod
    def with_capacity(cls, capacity: int, fp_rate: float = 0.01) -> "BloomFilter":
        """The optimal geometry for ``capacity`` keys at ``fp_rate``.

        ``m = -n ln p / (ln 2)^2`` bits and ``k = (m/n) ln 2`` probes —
        the textbook optimum; at these settings the realised
        false-positive rate at exactly ``capacity`` keys is ``~fp_rate``.
        """
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        num_bits = max(8, math.ceil(-capacity * math.log(fp_rate) / math.log(2) ** 2))
        num_hashes = max(1, round(num_bits / capacity * math.log(2)))
        return cls(num_bits=num_bits, num_hashes=num_hashes)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _probes(self, key: str) -> Iterable[int]:
        digest = stable_hash64(key, salt="bloom1"), stable_hash64(key, salt="bloom2")
        h1, h2 = digest
        # Force h2 odd so the probe sequence cycles the whole array even
        # when num_bits is a power of two.
        h2 |= 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: str) -> None:
        """Insert ``key`` (idempotent on the bit array)."""
        for position in self._probes(key):
            self._bits[position >> 3] |= 1 << (position & 7)
        self.count += 1

    def update(self, keys: Iterable[str]) -> None:
        """Insert every key in ``keys``."""
        for key in keys:
            self.add(key)

    def __contains__(self, key: str) -> bool:
        return all(
            self._bits[position >> 3] & (1 << (position & 7))
            for position in self._probes(key)
        )

    # ------------------------------------------------------------------
    # Merge / accounting
    # ------------------------------------------------------------------
    def merge(self, other: "BloomFilter") -> "BloomFilter":
        """OR ``other``'s bits into this filter; returns self.

        Requires identical geometry; the result is bit-identical to a
        filter built from the union of both key sets (the merge ≡
        pooled-build property the tests pin).
        """
        if (self.num_bits, self.num_hashes) != (other.num_bits, other.num_hashes):
            raise ValueError("cannot merge Bloom filters with different geometry")
        for i, byte in enumerate(other._bits):
            self._bits[i] |= byte
        self.count += other.count
        return self

    def fill_ratio(self) -> float:
        """Fraction of bits set — the saturation signal for routing.

        At the optimal geometry a filter holding its design capacity
        sits near 0.5; beyond ~0.5 the false-positive rate grows past
        the configured bound and routing should stop trusting it.
        """
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.num_bits

    def false_positive_rate(self) -> float:
        """The *realised* FP-rate estimate ``fill_ratio ** k``."""
        return self.fill_ratio() ** self.num_hashes

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready payload (inverse of :meth:`from_dict`)."""
        return {
            "num_bits": self.num_bits,
            "num_hashes": self.num_hashes,
            "count": self.count,
            "bits": self._bits.hex(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BloomFilter":
        filt = cls(
            num_bits=int(payload["num_bits"]),
            num_hashes=int(payload["num_hashes"]),
        )
        bits = bytearray.fromhex(str(payload["bits"]))
        if len(bits) != len(filt._bits):
            raise ValueError("bit payload does not match the declared geometry")
        filt._bits = bits
        filt.count = int(payload.get("count", 0))
        return filt

    def __getstate__(self) -> dict[str, Any]:
        return self.to_dict()

    def __setstate__(self, state: dict[str, Any]) -> None:
        other = BloomFilter.from_dict(state)
        self.num_bits = other.num_bits
        self.num_hashes = other.num_hashes
        self.count = other.count
        self._bits = other._bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.num_bits == other.num_bits
            and self.num_hashes == other.num_hashes
            and self._bits == other._bits
        )

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"BloomFilter(num_bits={self.num_bits}, num_hashes={self.num_hashes}, "
            f"count={self.count}, fill={self.fill_ratio():.3f})"
        )
