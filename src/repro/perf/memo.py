"""Decrypt memoization: the slot bodies behind every bucket still live.

Every Path ORAM path read opens height+1 buckets, almost all of which
*this same client* sealed on an earlier write-back.  A bucket is one
AES-GCM message (:mod:`repro.oram.slot`), so :class:`MemoizedAead`
remembers, per nonce, the exact ``nonce || ciphertext || tag`` object
the client handed to the server together with the AAD and the tuple of
Z slot bodies it was sealed from, and serves a path read from that
table — no hash, no keystream — wherever the server hands the same
bytes back.

Soundness: a hit requires the bucket served now to equal the recorded
one byte for byte *and* the AAD the client pins now (node, version) to
equal the recorded one.  Decryption is a pure function of ``(key,
nonce, ciphertext, aad)``, so on a hit the bare cipher would return
exactly the recorded bodies, joined.  Anything else — a flipped byte in
nonce, body or tag, a splice of two buckets, a replayed bucket whose
pinned version has moved on, another node's bucket, an entry the bound
pushed out — goes through the inner cipher's ``decrypt`` and is
accepted or rejected exactly as without the memo.  The buckets are
public (the SP stores them), so comparing them needs no constant-time
care.

An entry is used at most once: a path read is always followed by a
write-back of the same path, so once the *whole* path has authenticated
the ciphertexts just read are about to be overwritten and their entries
are dropped.  A failed open drops nothing — the access changed no client
state and the server still holds those buckets, so the retry finds them.
The table is bounded (oldest seal first); the wrapper never changes what
is encrypted or what appears on the wire (see the observer-equivalence
test, the tamper-equivalence property and ARCHITECTURE.md).

An entry keeps the slot bodies as a tuple, not joined: every dummy
slot the client seals is one shared body object, so a mostly-dummy
bucket costs the table little beyond the ciphertext the server already
holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from repro.crypto.suite import AeadCipher
from repro.oram import slot

# One bucket as the memo sees it: (wire blob, aad, slot bodies).
_SealedBucket = tuple[bytes, bytes, tuple[bytes, ...]]


@dataclass
class MemoStats:
    """Hit/miss accounting per bucket, surfaced through telemetry and
    perf-bench."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0


class MemoizedAead:
    """The live-bucket table beside an :class:`AeadCipher`.

    ``capacity_blocks`` bounds the blocks the entries describe, so the
    table holds ``capacity_blocks // bucket_size`` buckets.  Each entry
    holds references to the blob the server stores and the slot bodies
    the client encoded, so a live entry copies neither — host-process
    memory, not simulated on-chip memory.
    """

    def __init__(
        self,
        inner: AeadCipher,
        capacity_blocks: int = 4096,
        bucket_size: int = 4,
        block_size: int = 1024,
    ) -> None:
        if capacity_blocks < bucket_size or bucket_size <= 0:
            raise ValueError("memo capacity must hold at least one bucket")
        self.inner = inner
        self.capacity_buckets = capacity_blocks // bucket_size
        self.block_size = block_size
        # nonce -> (wire blob, aad, slot bodies), oldest seal first.
        self._live: dict[bytes, _SealedBucket] = {}
        self.stats = MemoStats()

    def remember(self, sealed: list[_SealedBucket]) -> None:
        """Record a write-back: per bucket, the wire blob
        (``nonce || inner seal``), its AAD and the slot bodies sealed."""
        live = self._live
        nonce_size = self.inner.nonce_size
        for entry in sealed:
            live[entry[0][:nonce_size]] = entry
        self.stats.inserts += len(sealed)
        excess = len(live) - self.capacity_buckets
        if excess > 0:
            for nonce in list(islice(live, excess)):
                del live[nonce]
            self.stats.evictions += excess

    def open_path(
        self, buckets: list[tuple[bytes, bytes]]
    ) -> list[tuple[bytes, ...]]:
        """Open one path read of ``(wire blob, aad)`` buckets into their
        slot bodies.

        Hits come from the table, the rest go through the inner
        ``decrypt`` one by one — all of them first, so a bad bucket
        raises before any plaintext is returned and before any entry is
        forgotten.
        """
        live = self._live
        nonce_size = self.inner.nonce_size
        out: list[tuple[bytes, ...] | None] = []
        used: list[bytes] = []
        misses: list[int] = []
        for blob, aad in buckets:
            nonce = blob[:nonce_size]
            entry = live.get(nonce)
            if entry is not None and entry[0] == blob and entry[1] == aad:
                used.append(nonce)
                out.append(entry[2])
            else:
                misses.append(len(out))
                out.append(None)
        self.stats.hits += len(used)
        self.stats.misses += len(misses)
        if misses:
            decrypt = self.inner.decrypt
            for index in misses:
                blob, aad = buckets[index]
                out[index] = slot.split(
                    decrypt(blob[:nonce_size], blob[nonce_size:], aad),
                    self.block_size,
                )
        for nonce in used:
            # The same blob served twice in one read hits twice.
            live.pop(nonce, None)
        return out  # type: ignore[return-value]
