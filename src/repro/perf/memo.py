"""Decrypt memoization: the plaintext behind every wire blob still live.

Every Path ORAM path read opens Z x (height+1) blocks, almost all of
which *this same client* sealed on an earlier write-back.
:class:`MemoizedAead` remembers, per nonce, the exact
``nonce || ciphertext || tag`` object the client handed to the server
together with the AAD and the plaintext it was sealed from, and serves a
path read from that table — no hash, no keystream — wherever the server
hands the same bytes back.

Soundness: a hit requires the blob served now to equal the recorded one
byte for byte *and* the AAD the client pins now (node, version) to equal
the recorded one.  Decryption is a pure function of ``(key, nonce,
ciphertext, aad)``, so on a hit the bare cipher would return exactly the
recorded plaintext.  Anything else — a flipped byte in nonce, body or
tag, a replayed bucket whose pinned version has moved on, a blob from
elsewhere, an entry the bound pushed out — goes through the inner
cipher's batch open and is accepted or rejected exactly as without the
memo.  The blobs are public (the SP stores them), so comparing them
needs no constant-time care.

An entry is used at most once: a path read is always followed by a
write-back of the same path, so once the *whole* path has authenticated
the ciphertexts just read are about to be overwritten and their entries
are dropped.  A failed open drops nothing — the access changed no client
state and the server still holds those blobs, so the retry finds them.
The table is bounded (oldest seal first); the wrapper never changes what
is encrypted or what appears on the wire (see the observer-equivalence
test, the tamper-equivalence property and ARCHITECTURE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from repro.crypto.suite import AeadCipher, AeadItem, open_blocks


@dataclass
class MemoStats:
    """Hit/miss accounting, surfaced through telemetry and perf-bench."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0


class MemoizedAead:
    """The live-blob table beside an :class:`AeadCipher`.

    ``capacity_blocks`` bounds the entries; each holds references to the
    blob the server stores and the slot body the client encoded, so a
    live entry copies neither — host-process memory, not simulated
    on-chip memory.
    """

    def __init__(self, inner: AeadCipher, capacity_blocks: int = 4096) -> None:
        if capacity_blocks <= 0:
            raise ValueError("memo capacity must be positive")
        self.inner = inner
        self.capacity_blocks = capacity_blocks
        # nonce -> (wire blob, aad, plaintext), oldest seal first.
        self._live: dict[bytes, tuple[bytes, bytes, bytes]] = {}
        self.stats = MemoStats()

    def remember(self, items: list[AeadItem], blobs: list[bytes]) -> None:
        """Record a write-back: ``blobs[i]`` is the wire blob
        (``nonce || inner seal``) of ``items[i] = (nonce, plaintext, aad)``."""
        live = self._live
        for (nonce, plaintext, aad), blob in zip(items, blobs):
            live[nonce] = (blob, aad, plaintext)
        self.stats.inserts += len(blobs)
        excess = len(live) - self.capacity_blocks
        if excess > 0:
            for nonce in list(islice(live, excess)):
                del live[nonce]
            self.stats.evictions += excess

    def open_path(self, blobs: list[tuple[bytes, bytes]]) -> list[bytes]:
        """Open one path read of ``(wire blob, aad)`` pairs.

        Hits come from the table, the rest go through one inner batch
        open — all tags first, so a bad block raises before any
        plaintext is returned and before any entry is forgotten.
        """
        live = self._live
        nonce_size = self.inner.nonce_size
        out: list[bytes | None] = []
        used: list[bytes] = []
        misses: list[AeadItem] = []
        miss_slots: list[int] = []
        for blob, aad in blobs:
            nonce = blob[:nonce_size]
            entry = live.get(nonce)
            if entry is not None and entry[0] == blob and entry[1] == aad:
                used.append(nonce)
                out.append(entry[2])
            else:
                misses.append((nonce, blob[nonce_size:], aad))
                miss_slots.append(len(out))
                out.append(None)
        self.stats.hits += len(used)
        self.stats.misses += len(misses)
        if misses:
            for slot, plaintext in zip(miss_slots, open_blocks(self.inner, misses)):
                out[slot] = plaintext
        for nonce in used:
            # The same blob served twice in one bucket hits twice.
            live.pop(nonce, None)
        return out  # type: ignore[return-value]
