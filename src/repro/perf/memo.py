"""Decrypt memoization: a plaintext cache keyed by ciphertext identity.

AEAD decryption is a pure function of ``(key, nonce, ciphertext, aad)``,
and the Path ORAM access pattern makes it a pathologically repetitive
one: every path read decrypts Z x (height+1) blocks, almost all of which
are blocks *this same client* sealed on a previous write-back.
:class:`MemoizedAead` wraps any :class:`~repro.crypto.suite.AeadCipher`
and remembers, in a bounded LRU, the plaintext behind each ciphertext it
has sealed or opened — so the steady-state path read costs hash lookups
instead of bulk decryption.

Soundness: the cache key is a 128-bit BLAKE2b digest over the full
``(nonce, aad, ciphertext)`` triple, and entries are inserted only from
a successful seal or open under this cipher's key.  Any byte an SP
tampers with — ciphertext, tag, or a replayed bucket whose AAD-bound
version no longer matches — changes the lookup key, misses the cache,
and falls through to real decryption, which rejects it exactly as the
unwrapped cipher would.  The wrapper never changes what is encrypted or
what appears on the wire; it is invisible to the adversary's view (see
the observer-equivalence property test and ARCHITECTURE.md).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.suite import AeadCipher, AeadItem, open_blocks, seal_blocks


@dataclass
class MemoStats:
    """Hit/miss accounting, surfaced through telemetry and perf-bench."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0


class MemoizedAead:
    """An :class:`AeadCipher` wrapper with a bounded decrypt memo.

    ``capacity_blocks`` bounds the number of cached plaintexts (LRU
    eviction); for the 1 KB ORAM block size the default ~4096 entries
    cost a few MB — host-process memory, not simulated on-chip memory.
    """

    def __init__(self, inner: AeadCipher, capacity_blocks: int = 4096) -> None:
        if capacity_blocks <= 0:
            raise ValueError("memo capacity must be positive")
        self.inner = inner
        self.nonce_size = inner.nonce_size
        self.tag_size = inner.tag_size
        self.capacity_blocks = capacity_blocks
        self._cache: OrderedDict[bytes, bytes] = OrderedDict()
        self.stats = MemoStats()

    @staticmethod
    def _key(nonce: bytes, data: bytes, aad: bytes) -> bytes:
        digest = hashlib.blake2b(
            len(aad).to_bytes(4, "big") + aad + nonce, digest_size=16
        )
        digest.update(data)
        return digest.digest()

    def _put(self, key: bytes, plaintext: bytes) -> None:
        cache = self._cache
        if key in cache:
            cache.move_to_end(key)
            cache[key] = plaintext
            return
        cache[key] = plaintext
        self.stats.inserts += 1
        if len(cache) > self.capacity_blocks:
            cache.popitem(last=False)
            self.stats.evictions += 1

    # -- AeadCipher ------------------------------------------------------

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        sealed = self.inner.encrypt(nonce, plaintext, aad)
        self._put(self._key(nonce, sealed, aad), plaintext)
        return sealed

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        key = self._key(nonce, data, aad)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        plaintext = self.inner.decrypt(nonce, data, aad)
        self._put(key, plaintext)
        return plaintext

    # -- batch paths -----------------------------------------------------

    def seal_blocks(self, items: list[AeadItem]) -> list[bytes]:
        sealed = seal_blocks(self.inner, items)
        key, put = self._key, self._put
        for (nonce, plaintext, aad), blob in zip(items, sealed):
            put(key(nonce, blob, aad), plaintext)
        return sealed

    def open_blocks(self, items: list[AeadItem]) -> list[bytes]:
        """Serve hits from the cache, batch-open only the misses.

        Preserves the all-or-nothing contract: a bad block among the
        misses raises from the inner batch open before any plaintext is
        returned, and cached entries are by construction authentic.
        """
        cache, key_of = self._cache, self._key
        out: list[bytes | None] = []
        misses: list[AeadItem] = []
        miss_slots: list[tuple[int, bytes]] = []
        for item in items:
            key = key_of(*item)
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)
            else:
                misses.append(item)
                miss_slots.append((len(out), key))
            out.append(cached)
        self.stats.hits += len(items) - len(misses)
        self.stats.misses += len(misses)
        if misses:
            opened = open_blocks(self.inner, misses)
            for (slot, key), plaintext in zip(miss_slots, opened):
                self._put(key, plaintext)
                out[slot] = plaintext
        return out  # type: ignore[return-value]

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
