"""Keccak-256 as used by Ethereum.

Ethereum uses the original Keccak submission (multi-rate padding byte
``0x01``), *not* the finalized NIST SHA3-256 (padding byte ``0x06``), so
:mod:`hashlib`'s ``sha3_256`` cannot be used.  This module implements
Keccak-f[1600] from the reference specification in pure Python.

It is called only where Ethereum fixes Keccak-256: trie nodes and
secure-trie keys, addresses, code hashes, the SHA3 opcode, block and
transaction hashes (DESIGN §7.3 lists every call site).  The protocol's
own digests — bundle ids, the channel's signed digest, session ids,
receipts — are labelled SHA-256 from :mod:`hashlib`.  An account keeps
its code hash beside its code, so bytecode is hashed once per code
object, not on every state commit or bulk load.  Results for frequently
re-hashed byte strings are memoised by :func:`keccak256` through a
bounded cache with explicit hit/miss accounting
(:func:`keccak_memo_stats`).

There is one Keccak path: every digest is ``Keccak256(data).digest()``
behind that memo.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1

# Round constants for Keccak-f[1600] (24 rounds).
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_RATE_BYTES = 136  # 1088-bit rate for Keccak-256.


def _keccak_f1600(lanes: list[int]) -> None:
    """Apply the Keccak-f[1600] permutation to 25 lanes in place.

    ``lanes`` is indexed as ``lanes[x + 5 * y]``.  Straight-line: the 25
    lanes live in locals for all 24 rounds, and each rho rotation offset
    and each lane move of pi is written out as a constant (2.7x the
    looped reference form, which ``tests/oracles.py`` keeps, with the
    rotation table, as the oracle this must equal).
    """
    mask = _MASK64
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = lanes
    for round_constant in _ROUND_CONSTANTS:
        # theta: column parities, then the per-column mix d[x].
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & mask)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & mask)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & mask)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & mask)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & mask)
        # theta's XOR, rho's rotation and pi's move, one lane at a time:
        # b[y + 5 * ((2x + 3y) % 5)] = rol(a[x + 5y] ^ d[x], ROTATION[x][y]).
        b0 = a0 ^ d0
        t = a1 ^ d1
        b10 = ((t << 1) | (t >> 63)) & mask
        t = a2 ^ d2
        b20 = ((t << 62) | (t >> 2)) & mask
        t = a3 ^ d3
        b5 = ((t << 28) | (t >> 36)) & mask
        t = a4 ^ d4
        b15 = ((t << 27) | (t >> 37)) & mask
        t = a5 ^ d0
        b16 = ((t << 36) | (t >> 28)) & mask
        t = a6 ^ d1
        b1 = ((t << 44) | (t >> 20)) & mask
        t = a7 ^ d2
        b11 = ((t << 6) | (t >> 58)) & mask
        t = a8 ^ d3
        b21 = ((t << 55) | (t >> 9)) & mask
        t = a9 ^ d4
        b6 = ((t << 20) | (t >> 44)) & mask
        t = a10 ^ d0
        b7 = ((t << 3) | (t >> 61)) & mask
        t = a11 ^ d1
        b17 = ((t << 10) | (t >> 54)) & mask
        t = a12 ^ d2
        b2 = ((t << 43) | (t >> 21)) & mask
        t = a13 ^ d3
        b12 = ((t << 25) | (t >> 39)) & mask
        t = a14 ^ d4
        b22 = ((t << 39) | (t >> 25)) & mask
        t = a15 ^ d0
        b23 = ((t << 41) | (t >> 23)) & mask
        t = a16 ^ d1
        b8 = ((t << 45) | (t >> 19)) & mask
        t = a17 ^ d2
        b18 = ((t << 15) | (t >> 49)) & mask
        t = a18 ^ d3
        b3 = ((t << 21) | (t >> 43)) & mask
        t = a19 ^ d4
        b13 = ((t << 8) | (t >> 56)) & mask
        t = a20 ^ d0
        b14 = ((t << 18) | (t >> 46)) & mask
        t = a21 ^ d1
        b24 = ((t << 2) | (t >> 62)) & mask
        t = a22 ^ d2
        b9 = ((t << 61) | (t >> 3)) & mask
        t = a23 ^ d3
        b19 = ((t << 56) | (t >> 8)) & mask
        t = a24 ^ d4
        b4 = ((t << 14) | (t >> 50)) & mask
        # chi (and iota on lane 0).
        a0 = b0 ^ (~b1 & b2) ^ round_constant
        a1 = b1 ^ (~b2 & b3)
        a2 = b2 ^ (~b3 & b4)
        a3 = b3 ^ (~b4 & b0)
        a4 = b4 ^ (~b0 & b1)
        a5 = b5 ^ (~b6 & b7)
        a6 = b6 ^ (~b7 & b8)
        a7 = b7 ^ (~b8 & b9)
        a8 = b8 ^ (~b9 & b5)
        a9 = b9 ^ (~b5 & b6)
        a10 = b10 ^ (~b11 & b12)
        a11 = b11 ^ (~b12 & b13)
        a12 = b12 ^ (~b13 & b14)
        a13 = b13 ^ (~b14 & b10)
        a14 = b14 ^ (~b10 & b11)
        a15 = b15 ^ (~b16 & b17)
        a16 = b16 ^ (~b17 & b18)
        a17 = b17 ^ (~b18 & b19)
        a18 = b18 ^ (~b19 & b15)
        a19 = b19 ^ (~b15 & b16)
        a20 = b20 ^ (~b21 & b22)
        a21 = b21 ^ (~b22 & b23)
        a22 = b22 ^ (~b23 & b24)
        a23 = b23 ^ (~b24 & b20)
        a24 = b24 ^ (~b20 & b21)
    lanes[:] = (
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
        a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24,
    )


class Keccak256:
    """Incremental Keccak-256 hasher with a hashlib-like interface."""

    digest_size = 32

    def __init__(self, data: bytes = b"") -> None:
        self._lanes = [0] * 25
        self._buffer = bytearray()
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Keccak256":
        """Absorb ``data`` into the sponge."""
        self._buffer.extend(data)
        while len(self._buffer) >= _RATE_BYTES:
            self._absorb_block(bytes(self._buffer[:_RATE_BYTES]))
            del self._buffer[:_RATE_BYTES]
        return self

    def _absorb_block(self, block: bytes) -> None:
        for i in range(_RATE_BYTES // 8):
            self._lanes[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        _keccak_f1600(self._lanes)

    def digest(self) -> bytes:
        """Return the 32-byte digest without disturbing the running state."""
        lanes = list(self._lanes)
        padded = bytearray(self._buffer)
        padded.append(0x01)
        padded.extend(b"\x00" * (_RATE_BYTES - len(padded)))
        padded[-1] ^= 0x80
        for i in range(_RATE_BYTES // 8):
            lanes[i] ^= int.from_bytes(padded[8 * i:8 * i + 8], "little")
        _keccak_f1600(lanes)
        out = bytearray()
        for i in range(4):  # 32 bytes = 4 lanes
            out.extend(lanes[i].to_bytes(8, "little"))
        return bytes(out)

    def hexdigest(self) -> str:
        return self.digest().hex()


# ---------------------------------------------------------------------------
# Bounded memo cache with explicit accounting.
# ---------------------------------------------------------------------------


@dataclass
class KeccakMemoStats:
    """Host-process memo accounting (diagnostics, never protocol bytes)."""

    hits: int = 0
    misses: int = 0


# Small inputs (trie nodes, addresses, opcodes) share a deep cache; big
# inputs (bytecode deployed or read inside a bundle, SHA3 over large
# memory) get a shallow one so memory stays bounded.
_SMALL_LIMIT = 1024
_SMALL_CAPACITY = 65536
_LARGE_CAPACITY = 256

_small_cache: OrderedDict[bytes, bytes] = OrderedDict()
_large_cache: OrderedDict[bytes, bytes] = OrderedDict()
_memo_stats = KeccakMemoStats()


def keccak_memo_stats() -> KeccakMemoStats:
    """Cumulative hit/miss counters for the :func:`keccak256` memo."""
    return _memo_stats


def reset_keccak_memo() -> None:
    """Drop all memoised digests and zero the counters (benchmarks)."""
    _small_cache.clear()
    _large_cache.clear()
    _memo_stats.hits = 0
    _memo_stats.misses = 0


def keccak256(data: bytes) -> bytes:
    """Return the Keccak-256 digest of ``data`` (Ethereum's hash function)."""
    data = bytes(data)
    if len(data) <= _SMALL_LIMIT:
        cache, capacity = _small_cache, _SMALL_CAPACITY
    else:
        cache, capacity = _large_cache, _LARGE_CAPACITY
    cached = cache.get(data)
    if cached is not None:
        cache.move_to_end(data)
        _memo_stats.hits += 1
        return cached
    _memo_stats.misses += 1
    digest = Keccak256(data).digest()
    cache[data] = digest
    if len(cache) > capacity:
        cache.popitem(last=False)
    return digest
