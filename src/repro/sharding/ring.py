"""A deterministic consistent-hash ring for page-key placement.

HarDTAPE makes every state read one fixed-size ORAM page access, so the
world state partitions cleanly by page key: the ring hashes each shard
into ``vnodes`` points on a 64-bit circle and assigns a key to the
first shard point at or clockwise of the key's own hash.  Adding or
removing a shard therefore only moves the keys that land in the new
(or vacated) arcs — about K/N of K keys for an N-shard ring — while
every other key keeps its placement, which is what lets a live fleet
grow without re-encrypting every ORAM tree.

Everything is keyed BLAKE2b, so two rings built with the same seed,
shard ids and vnode count are byte-identical and place every key
alike.  Mutation returns a *new* ring: placement tables are part of the
deployment's attested configuration, never edited in place.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, Sequence

from repro.sharding.errors import RingConfigurationError

DEFAULT_RING_SEED = b"hardtape-shard-ring"


def _hash64(seed: bytes, data: bytes) -> int:
    """A keyed 64-bit point on the ring circle."""
    digest = hashlib.blake2b(data, digest_size=8, key=seed).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """Maps page keys to shard ids with minimal-movement semantics."""

    def __init__(
        self,
        shard_ids: Iterable[int],
        *,
        vnodes: int = 128,
        seed: bytes = DEFAULT_RING_SEED,
    ) -> None:
        ids = list(shard_ids)
        if not ids:
            raise RingConfigurationError("a ring needs at least one shard")
        if len(set(ids)) != len(ids):
            raise RingConfigurationError(f"duplicate shard ids in {ids}")
        if any(sid < 0 for sid in ids):
            raise RingConfigurationError("shard ids must be non-negative")
        if vnodes < 1:
            raise RingConfigurationError("vnodes must be >= 1")
        if not 1 <= len(seed) <= 64:
            raise RingConfigurationError("ring seed must be 1..64 bytes")
        self._seed = bytes(seed)
        self._vnodes = vnodes
        self._shard_ids = tuple(sorted(ids))
        # Ties on the 64-bit point are broken by (point, shard, replica):
        # deterministic, and astronomically rare to begin with.
        points = []
        for sid in self._shard_ids:
            for replica in range(vnodes):
                token = b"vnode|%d|%d" % (sid, replica)
                points.append((_hash64(self._seed, token), sid, replica))
        points.sort()
        self._points = points
        self._keys = [point for point, _, _ in points]

    # -- placement -----------------------------------------------------

    def shard_for(self, key: bytes) -> int:
        """The shard owning ``key``: first point clockwise of its hash."""
        point = _hash64(self._seed, b"key|" + key)
        index = bisect_right(self._keys, point)
        if index == len(self._keys):
            index = 0  # wrap around the circle
        return self._points[index][1]

    # -- topology ------------------------------------------------------

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return self._shard_ids

    def with_shard(self, shard_id: int) -> "ConsistentHashRing":
        """A new ring with ``shard_id`` added; existing arcs unchanged."""
        if shard_id in self._shard_ids:
            raise RingConfigurationError(f"shard {shard_id} already on the ring")
        return ConsistentHashRing(
            self._shard_ids + (shard_id,), vnodes=self._vnodes, seed=self._seed
        )

    def without_shard(self, shard_id: int) -> "ConsistentHashRing":
        """A new ring with ``shard_id`` drained off the circle."""
        if shard_id not in self._shard_ids:
            raise RingConfigurationError(f"shard {shard_id} is not on the ring")
        remaining = [sid for sid in self._shard_ids if sid != shard_id]
        return ConsistentHashRing(remaining, vnodes=self._vnodes, seed=self._seed)

    def assignment_counts(self, keys: Sequence[bytes]) -> dict[int, int]:
        """How many of ``keys`` each shard owns (balance diagnostics)."""
        counts = {sid: 0 for sid in self._shard_ids}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts
