"""AES-GCM authenticated encryption (NIST SP 800-38D).

Used by HarDTAPE for three data flows (paper §IV-C):

* the user↔Hypervisor secure channel (session key from DHKE),
* layer-3 swapped-out call-stack pages,
* ORAM *block* re-encryption (shared ORAM key).

GHASH uses an 8-bit lookup table built from the hash subkey, which keeps
1 KB-page encryption fast enough for the functional simulation; the
table is built by linearity in ~0.5 ms per key, so nothing caches it.  The
update loop is unrolled with the sixteen position tables bound to locals
and reads full 16-byte chunks through a memoryview, so only the final
short chunk ever allocates a padded copy.

:meth:`AesGcm.seal_blocks` / :meth:`AesGcm.open_blocks` process many
same-key messages per call, generating every CTR keystream in one
vectorized pass (see :meth:`repro.crypto.aes.AES.ctr_keystream_many`) —
the shape of an ORAM path write, where Z x (height+1) slots are sealed
back-to-back.
"""

from __future__ import annotations

from repro.crypto.aes import AES, xor_bytes


class AuthenticationError(Exception):
    """Raised when a GCM tag does not verify (tampered or wrong key)."""


def _ghash_table(h: int) -> list[list[int]]:
    """Precompute 16 tables of 256 entries for byte-at-a-time GHASH.

    ``tables[i][v]`` is the GF(2^128) product of ``H`` with the block
    whose byte ``i`` is ``v`` (GCM polynomial, bits reflected per the
    spec).  The product is linear in the block, so the table is built
    from the 128 single-bit products ``H * x^k`` — one shift-and-reduce
    step each — and every other entry is one XOR of two earlier ones.
    (The bit-serial definition it must equal lives on as
    :func:`repro.perf.reference.gf_mul`, the test oracle.)
    """
    powers: list[int] = []
    x = h
    for _ in range(128):
        powers.append(x)
        x = (x >> 1) ^ (0xE1 << 120) if x & 1 else x >> 1
    tables: list[list[int]] = []
    for byte_index in range(16):
        table = [0] * 256
        for value in range(1, 256):
            rest = value & (value - 1)  # value without its lowest set bit
            if rest:
                table[value] = table[rest] ^ table[value ^ rest]
            else:
                # A single bit: bit 7 of byte i is x^(8i), bit 0 is x^(8i+7).
                table[value] = powers[8 * byte_index + 8 - value.bit_length()]
        tables.append(table)
    return tables


class _Ghash:
    """Incremental GHASH over the subkey ``H``."""

    __slots__ = ("_tables", "_acc")

    def __init__(self, tables: list[list[int]]) -> None:
        self._tables = tables
        self._acc = 0

    def update(self, data: bytes) -> None:
        (
            t0, t1, t2, t3, t4, t5, t6, t7,
            t8, t9, t10, t11, t12, t13, t14, t15,
        ) = self._tables
        acc = self._acc
        n = len(data)
        full = n - (n % 16)
        view = memoryview(data)
        for offset in range(0, full, 16):
            acc ^= int.from_bytes(view[offset:offset + 16], "big")
            acc = (
                t0[(acc >> 120) & 0xFF] ^ t1[(acc >> 112) & 0xFF]
                ^ t2[(acc >> 104) & 0xFF] ^ t3[(acc >> 96) & 0xFF]
                ^ t4[(acc >> 88) & 0xFF] ^ t5[(acc >> 80) & 0xFF]
                ^ t6[(acc >> 72) & 0xFF] ^ t7[(acc >> 64) & 0xFF]
                ^ t8[(acc >> 56) & 0xFF] ^ t9[(acc >> 48) & 0xFF]
                ^ t10[(acc >> 40) & 0xFF] ^ t11[(acc >> 32) & 0xFF]
                ^ t12[(acc >> 24) & 0xFF] ^ t13[(acc >> 16) & 0xFF]
                ^ t14[(acc >> 8) & 0xFF] ^ t15[acc & 0xFF]
            )
        if full < n:
            # Only the trailing short chunk pays for a padded copy.
            tail = bytes(view[full:]) + b"\x00" * (16 - (n - full))
            acc ^= int.from_bytes(tail, "big")
            acc = (
                t0[(acc >> 120) & 0xFF] ^ t1[(acc >> 112) & 0xFF]
                ^ t2[(acc >> 104) & 0xFF] ^ t3[(acc >> 96) & 0xFF]
                ^ t4[(acc >> 88) & 0xFF] ^ t5[(acc >> 80) & 0xFF]
                ^ t6[(acc >> 72) & 0xFF] ^ t7[(acc >> 64) & 0xFF]
                ^ t8[(acc >> 56) & 0xFF] ^ t9[(acc >> 48) & 0xFF]
                ^ t10[(acc >> 40) & 0xFF] ^ t11[(acc >> 32) & 0xFF]
                ^ t12[(acc >> 24) & 0xFF] ^ t13[(acc >> 16) & 0xFF]
                ^ t14[(acc >> 8) & 0xFF] ^ t15[acc & 0xFF]
            )
        self._acc = acc

    def digest(self) -> int:
        return self._acc


class AesGcm:
    """AES-GCM with 12-byte nonces and 16-byte tags."""

    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")
        self._tables = _ghash_table(h)

    def _tag(self, j0: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        ghash = _Ghash(self._tables)
        ghash.update(aad)
        ghash.update(ciphertext)
        lengths = (len(aad) * 8).to_bytes(8, "big") + (
            len(ciphertext) * 8
        ).to_bytes(8, "big")
        ghash.update(lengths)
        s = ghash.digest().to_bytes(16, "big")
        ek = self._aes.encrypt_block(j0)
        return xor_bytes(s, ek)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ``ciphertext || tag`` for ``plaintext`` under ``nonce``.

        The caller is responsible for nonce uniqueness per key; HarDTAPE
        components derive nonces from monotonic message counters.
        """
        if len(nonce) != self.nonce_size:
            raise ValueError("GCM nonce must be 12 bytes")
        j0 = nonce + b"\x00\x00\x00\x01"
        counter_block = nonce + b"\x00\x00\x00\x02"
        keystream = self._aes.ctr_keystream(counter_block, len(plaintext))
        ciphertext = xor_bytes(plaintext, keystream)
        return ciphertext + self._tag(j0, aad, ciphertext)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext.

        Raises :class:`AuthenticationError` when the tag does not match,
        which HarDTAPE treats as evidence of tampering by the SP (attack
        A4 / A6 in the threat model).
        """
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
        keystream = self._aes.ctr_keystream(counter_block, len(ciphertext))
        return xor_bytes(ciphertext, keystream)

    # -- batched same-key paths ----------------------------------------

    def seal_blocks(
        self, items: list[tuple[bytes, bytes, bytes]]
    ) -> list[bytes]:
        """Encrypt many ``(nonce, plaintext, aad)`` messages at once.

        Byte-for-byte equivalent to calling :meth:`encrypt` per item;
        all CTR keystreams (payloads and the per-message J0 blocks for
        the tags) come from one vectorized AES pass.
        """
        if not items:
            return []
        counter_blocks: list[bytes] = []
        lengths: list[int] = []
        for nonce, plaintext, _aad in items:
            if len(nonce) != self.nonce_size:
                raise ValueError("GCM nonce must be 12 bytes")
            counter_blocks.append(nonce + b"\x00\x00\x00\x02")
            lengths.append(len(plaintext))
            counter_blocks.append(nonce + b"\x00\x00\x00\x01")
            lengths.append(16)
        streams = self._aes.ctr_keystream_many(counter_blocks, lengths)
        out: list[bytes] = []
        tag = self._tag_from_ek
        for index, (nonce, plaintext, aad) in enumerate(items):
            ciphertext = xor_bytes(plaintext, streams[2 * index])
            out.append(
                ciphertext + tag(streams[2 * index + 1], aad, ciphertext)
            )
        return out

    def open_blocks(
        self, items: list[tuple[bytes, bytes, bytes]]
    ) -> list[bytes]:
        """Verify and decrypt many ``(nonce, data, aad)`` messages.

        All tags are checked *before* any plaintext is produced, so a
        single tampered message aborts the whole batch — matching the
        ORAM client's all-or-nothing path absorption.
        """
        if not items:
            return []
        counter_blocks: list[bytes] = []
        lengths: list[int] = []
        for nonce, data, _aad in items:
            if len(nonce) != self.nonce_size:
                raise ValueError("GCM nonce must be 12 bytes")
            if len(data) < self.tag_size:
                raise AuthenticationError("message shorter than a GCM tag")
            counter_blocks.append(nonce + b"\x00\x00\x00\x02")
            lengths.append(len(data) - self.tag_size)
            counter_blocks.append(nonce + b"\x00\x00\x00\x01")
            lengths.append(16)
        streams = self._aes.ctr_keystream_many(counter_blocks, lengths)
        tag_size = self.tag_size
        tag = self._tag_from_ek
        ciphertexts: list[bytes] = []
        for index, (nonce, data, aad) in enumerate(items):
            ciphertext = data[:-tag_size]
            if tag(streams[2 * index + 1], aad, ciphertext) != data[-tag_size:]:
                raise AuthenticationError("GCM tag mismatch")
            ciphertexts.append(ciphertext)
        return [
            xor_bytes(ciphertext, streams[2 * index])
            for index, ciphertext in enumerate(ciphertexts)
        ]

    def _tag_from_ek(self, ek_j0: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        """Tag computation given the already-encrypted J0 block."""
        ghash = _Ghash(self._tables)
        ghash.update(aad)
        ghash.update(ciphertext)
        lengths = (len(aad) * 8).to_bytes(8, "big") + (
            len(ciphertext) * 8
        ).to_bytes(8, "big")
        ghash.update(lengths)
        return xor_bytes(ghash.digest().to_bytes(16, "big"), ek_j0)
