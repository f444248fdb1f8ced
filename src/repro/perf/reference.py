"""Frozen pre-optimization crypto: the tests' oracle.

These classes preserve, verbatim, the block-at-a-time algorithms the
repo shipped before the ``repro.perf`` pass — per-block ``bytes``
concatenation in the CTR loop, a padded copy per GHASH chunk, per-byte
generator XOR — on top of the same (correct) AES block transform.  They
exist for one job: the equivalence tests assert the optimized paths are
byte-for-byte identical to these references on every input shape —
including the bit-serial :func:`gf_mul` that *defines* the GHASH byte
tables :func:`repro.crypto.gcm._ghash_table` now builds by linearity.

They are **not** wired into any production path.
"""

from __future__ import annotations

from repro.crypto.aes import AES
from repro.crypto.gcm import AuthenticationError, _ghash_table


def gf_mul(x: int, y: int) -> int:
    """Bit-serial GF(2^128) product, GCM polynomial, bits reflected.

    The definition :func:`repro.crypto.gcm._ghash_table` must equal
    entry by entry; the production table is built by linearity instead.
    """
    result = 0
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            result ^= x
        if x & 1:
            x = (x >> 1) ^ (0xE1 << 120)
        else:
            x >>= 1
    return result


def reference_ghash_table(h: int) -> list[list[int]]:
    """The GHASH byte tables, one bit-serial :func:`gf_mul` per entry."""
    return [
        [gf_mul(value << (8 * (15 - byte_index)), h) for value in range(256)]
        for byte_index in range(16)
    ]


class ReferenceGhash:
    """Pre-optimization GHASH: padded copy per chunk, indexed loop."""

    def __init__(self, tables: list[list[int]]) -> None:
        self._tables = tables
        self._acc = 0

    def update(self, data: bytes) -> None:
        tables = self._tables
        acc = self._acc
        for offset in range(0, len(data), 16):
            chunk = data[offset:offset + 16]
            if len(chunk) < 16:
                chunk = chunk + b"\x00" * (16 - len(chunk))
            acc ^= int.from_bytes(chunk, "big")
            result = 0
            for i in range(16):
                result ^= tables[i][(acc >> (8 * (15 - i))) & 0xFF]
            acc = result
        self._acc = acc

    def digest(self) -> int:
        return self._acc


def reference_ctr_keystream(aes: AES, counter_block: bytes, length: int) -> bytes:
    """Pre-optimization CTR loop: one encrypt_block + concat per block."""
    prefix = counter_block[:12]
    counter = int.from_bytes(counter_block[12:], "big")
    out = bytearray()
    blocks = (length + 15) // 16
    for _ in range(blocks):
        out.extend(aes.encrypt_block(prefix + counter.to_bytes(4, "big")))
        counter = (counter + 1) & 0xFFFFFFFF
    return bytes(out[:length])


class ReferenceAesGcm:
    """Pre-optimization AES-GCM: per-block CTR, per-byte XOR."""

    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")
        self._tables = _ghash_table(h)

    def _tag(self, j0: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        ghash = ReferenceGhash(self._tables)
        ghash.update(aad)
        ghash.update(ciphertext)
        lengths = (len(aad) * 8).to_bytes(8, "big") + (
            len(ciphertext) * 8
        ).to_bytes(8, "big")
        ghash.update(lengths)
        s = ghash.digest().to_bytes(16, "big")
        ek = self._aes.encrypt_block(j0)
        return bytes(a ^ b for a, b in zip(s, ek))

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != self.nonce_size:
            raise ValueError("GCM nonce must be 12 bytes")
        j0 = nonce + b"\x00\x00\x00\x01"
        counter_block = nonce + b"\x00\x00\x00\x02"
        keystream = reference_ctr_keystream(self._aes, counter_block, len(plaintext))
        ciphertext = bytes(a ^ b for a, b in zip(plaintext, keystream))
        return ciphertext + self._tag(j0, aad, ciphertext)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != self.nonce_size:
            raise ValueError("GCM nonce must be 12 bytes")
        if len(data) < self.tag_size:
            raise AuthenticationError("message shorter than a GCM tag")
        ciphertext, tag = data[:-self.tag_size], data[-self.tag_size:]
        j0 = nonce + b"\x00\x00\x00\x01"
        expected = self._tag(j0, aad, ciphertext)
        if expected != tag:
            raise AuthenticationError("GCM tag mismatch")
        counter_block = nonce + b"\x00\x00\x00\x02"
        keystream = reference_ctr_keystream(self._aes, counter_block, len(ciphertext))
        return bytes(a ^ b for a, b in zip(ciphertext, keystream))
