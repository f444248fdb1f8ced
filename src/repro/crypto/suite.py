"""Pluggable authenticated-encryption suites.

Every ORAM block, journal record, checkpoint and resumption ticket is
sealed by :class:`AcceleratedAesGcmAead`, AES-GCM through OpenSSL — the
simulation's A.E.DMA units — whatever crypto tier the channel runs on.
:class:`AesGcmAead` is its pure-Python, wire-identical oracle.  The
cipher moves wall clock only: simulated time comes from the cost model.
:class:`Blake2Aead` is built by nothing; see its docstring.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Protocol

from cryptography.exceptions import InvalidTag as _InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM as _OpensslAesGcm

from repro.crypto.aes import AES, ghash, ghash_tables, xor_bytes

# Batch items are (nonce, payload, aad) triples; payload is plaintext
# for sealing and ciphertext||tag for opening.
AeadItem = tuple[bytes, bytes, bytes]


class AuthenticationError(Exception):
    """Raised when an AEAD tag does not verify (tampered or wrong key)."""


class AeadCipher(Protocol):
    """Nonce-based authenticated encryption."""

    nonce_size: int
    tag_size: int

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ...

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        ...


class AesGcmAead:
    """AES-GCM in pure Python, block at a time (NIST SP 800-38D): CTR over
    :meth:`AES.encrypt_block` and a table GHASH.  It serves nothing: it is
    :class:`AcceleratedAesGcmAead`'s oracle and the reference tier's cipher."""

    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        h = self._aes.encrypt_block(bytes(16))
        self._tables = ghash_tables(int.from_bytes(h, "big"))

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        j0 = self._aes.encrypt_block(nonce + b"\x00\x00\x00\x01")
        return xor_bytes(ghash(self._tables, aad, ciphertext).to_bytes(16, "big"), j0)

    def _ctr(self, nonce: bytes, data: bytes) -> bytes:
        counter_block = nonce + b"\x00\x00\x00\x02"
        return xor_bytes(data, self._aes.ctr_keystream(counter_block, len(data)))

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != self.nonce_size:
            raise ValueError("nonce must be 12 bytes")
        ciphertext = self._ctr(nonce, plaintext)
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != self.nonce_size:
            raise ValueError("nonce must be 12 bytes")
        if len(data) < self.tag_size:
            raise AuthenticationError("message shorter than a tag")
        ciphertext, tag = data[:-self.tag_size], data[-self.tag_size:]
        if not hmac.compare_digest(tag, self._tag(nonce, aad, ciphertext)):
            raise AuthenticationError("tag mismatch")
        return self._ctr(nonce, ciphertext)

    def seal_blocks(self, items: list[AeadItem]) -> list[bytes]:
        """:meth:`encrypt` per item.  Nothing in the package calls it: it
        is kept only because the e2e ledger's ``benchmarks/e2e/trace.py``
        patches it by name, until that table drops it (ROADMAP 4 (a))."""
        return [self.encrypt(nonce, pt, aad) for nonce, pt, aad in items]

    def open_blocks(self, items: list[AeadItem]) -> list[bytes]:
        """:meth:`decrypt` per item (the first bad tag raises), kept for
        the ledger's name table as :meth:`seal_blocks` is."""
        return [self.decrypt(nonce, data, aad) for nonce, data, aad in items]


# ``cryptography`` is a hard dependency: the default tier's channel runs
# through it.  The constant is what the e2e ledger stamps into its
# environment line.
HAVE_OPENSSL_AESGCM = True


class AcceleratedAesGcmAead:
    """AES-GCM through OpenSSL: every seal the package serves, and the
    default (``hashlib``) tier's channel cipher.  Wire-identical to
    :class:`AesGcmAead` — same ``ciphertext || tag`` bytes, same 12-byte
    nonces, same accept/reject decisions (``test_prop_crypto.py``)."""

    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes) -> None:
        self._aead = _OpensslAesGcm(key)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != self.nonce_size:
            raise ValueError("nonce must be 12 bytes")
        return self._aead.encrypt(nonce, plaintext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != self.nonce_size:
            raise ValueError("nonce must be 12 bytes")
        if len(data) < self.tag_size:
            raise AuthenticationError("message shorter than a tag")
        try:
            return self._aead.decrypt(nonce, data, aad)
        except _InvalidTag as exc:
            raise AuthenticationError("tag mismatch") from exc


class Blake2Aead:
    """SHAKE-256 keystream + keyed-BLAKE2b tag.

    Nothing in the package constructs it: AES-GCM through OpenSSL
    (:class:`AcceleratedAesGcmAead`) is faster and is the paper's
    cipher.  It is kept only because the e2e ledger's
    ``benchmarks/e2e/trace.py`` resolves ``encrypt``, ``decrypt`` and
    ``open_blocks`` on it by name, and goes when the ledger reads spans
    instead of that name table (ROADMAP item 4 (b)).
    """

    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes) -> None:
        self._enc_key = hashlib.blake2b(key, digest_size=32, person=b"enc-key-deriv").digest()
        mac_key = hashlib.blake2b(key, digest_size=32, person=b"mac-key-deriv").digest()
        # Keyed once; every tag continues a copy of this state.
        self._mac = hashlib.blake2b(key=mac_key, digest_size=self.tag_size)

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        # SHAKE-256 as an XOF produces the whole keystream in one call.
        return hashlib.shake_256(self._enc_key + nonce).digest(length)

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(len(aad).to_bytes(8, "big") + aad + nonce)
        mac.update(ciphertext)
        return mac.digest()

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != self.nonce_size:
            raise ValueError("nonce must be 12 bytes")
        keystream = self._keystream(nonce, len(plaintext))
        ciphertext = xor_bytes(plaintext, keystream)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != self.nonce_size:
            raise ValueError("nonce must be 12 bytes")
        if len(data) < self.tag_size:
            raise AuthenticationError("message shorter than a tag")
        ciphertext = data[:-self.tag_size]
        if not hmac.compare_digest(
            data[-self.tag_size:], self._tag(nonce, ciphertext, aad)
        ):
            raise AuthenticationError("tag mismatch")
        return xor_bytes(ciphertext, self._keystream(nonce, len(ciphertext)))

    def open_blocks(self, items: list[AeadItem]) -> list[bytes]:
        return [self.decrypt(nonce, data, aad) for nonce, data, aad in items]


class CounterNonceSealer:
    """Sequence-numbered sealing for the recovery plane.

    Checkpoint and journal records are identified by a strictly
    increasing sequence number, so the AEAD nonce *is* the sequence
    number: uniqueness is structural (the journal never reuses a seq)
    instead of depending on persisted counter state — exactly what a
    sealer used to survive crashes must avoid.  The AAD binds each
    record to its role and position so the untrusted store cannot
    splice records across kinds or epochs.  The cipher is AES-GCM, so a
    key must never see one sequence number twice (DESIGN.md §7.2).
    """

    def __init__(self, key: bytes) -> None:
        self._cipher = AcceleratedAesGcmAead(key)

    def seal(self, seq: int, plaintext: bytes, aad: bytes = b"") -> bytes:
        nonce = seq.to_bytes(self._cipher.nonce_size, "big")
        return self._cipher.encrypt(nonce, plaintext, aad)

    def open(self, seq: int, data: bytes, aad: bytes = b"") -> bytes:
        nonce = seq.to_bytes(self._cipher.nonce_size, "big")
        return self._cipher.decrypt(nonce, data, aad)
