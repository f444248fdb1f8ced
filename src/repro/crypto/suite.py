"""Pluggable authenticated-encryption suites.

The real HarDTAPE uses AES-GCM hardware (the A.E.DMA units).  The
functional simulation uses AES-GCM wherever protocol correctness is the
point (secure channel, tamper tests): :class:`AcceleratedAesGcmAead`
through OpenSSL in the default crypto tier, the wire-identical
pure-Python :class:`AesGcmAead` in the reference tier.  For large
benchmark sweeps that perform tens of thousands of 1 KB ORAM *block*
re-encryptions, :class:`Blake2Aead` provides the same interface and the
same security *semantics in the simulation* (randomized ciphertexts,
integrity tag) at ~100x the speed; simulated time is charged by the
hardware cost model either way, so the choice never affects reported
numbers — only wall clock.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Protocol

from cryptography.exceptions import InvalidTag as _InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM as _OpensslAesGcm

from repro.crypto.aes import xor_bytes
from repro.crypto.gcm import AesGcm, AuthenticationError

# Batch items are (nonce, payload, aad) triples; payload is plaintext
# for sealing and ciphertext||tag for opening.
AeadItem = tuple[bytes, bytes, bytes]


class AeadCipher(Protocol):
    """Nonce-based authenticated encryption."""

    nonce_size: int
    tag_size: int

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ...

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        ...


def seal_blocks(cipher: AeadCipher, items: list[AeadItem]) -> list[bytes]:
    """Encrypt many ``(nonce, plaintext, aad)`` items under one cipher.

    Uses the cipher's native batch path when it has one (AES-GCM
    vectorizes all CTR keystreams in a single pass) and falls back to
    per-item :meth:`encrypt` otherwise.  Output is byte-identical
    either way.
    """
    native = getattr(cipher, "seal_blocks", None)
    if native is not None:
        return native(items)
    return [cipher.encrypt(nonce, pt, aad) for nonce, pt, aad in items]


def open_blocks(cipher: AeadCipher, items: list[AeadItem]) -> list[bytes]:
    """Verify-and-decrypt many ``(nonce, data, aad)`` items.

    Like :func:`seal_blocks`, dispatches to a native batch
    implementation when available.  Any authentication failure raises
    before plaintexts are returned.
    """
    native = getattr(cipher, "open_blocks", None)
    if native is not None:
        return native(items)
    return [cipher.decrypt(nonce, data, aad) for nonce, data, aad in items]


class AesGcmAead:
    """AES-GCM (the paper's cipher)."""

    nonce_size = 12
    tag_size = 16

    def __init__(self, key: bytes) -> None:
        self._gcm = AesGcm(key)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        return self._gcm.encrypt(nonce, plaintext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        return self._gcm.decrypt(nonce, data, aad)

    def seal_blocks(self, items: list[AeadItem]) -> list[bytes]:
        return self._gcm.seal_blocks(items)

    def open_blocks(self, items: list[AeadItem]) -> list[bytes]:
        return self._gcm.open_blocks(items)


# ``cryptography`` is a hard dependency: the default tier's channel runs
# through it.  The constant is what the e2e ledger stamps into its
# environment line.
HAVE_OPENSSL_AESGCM = True


class AcceleratedAesGcmAead:
    """AES-GCM through OpenSSL (the ``hashlib`` tier, the default).

    Wire-identical to :class:`AesGcmAead` — same ``ciphertext || tag``
    layout, same 12-byte nonces, same accept/reject decisions — which
    perf-bench's pairwise backend identity gate enforces on every run.
    """

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
    """Fast AEAD: SHAKE-256 keystream + keyed-BLAKE2b tag.

    Functionally interchangeable with AES-GCM for the simulation; used
    by default in the ORAM layer to keep wall-clock reasonable.

    :meth:`seal_blocks` / :meth:`open_blocks` take a whole ORAM path at
    once: the hashing is per block (it is what the bytes are), but the
    bodies are XORed against their keystreams in one vector operation
    for the batch.  Byte-identical to :meth:`encrypt` / :meth:`decrypt`
    per item.
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

    def _checked_ciphertext(self, nonce: bytes, data: bytes, aad: bytes) -> bytes:
        """``data`` without its tag, once the tag has verified."""
        if len(nonce) != self.nonce_size:
            raise ValueError("nonce must be 12 bytes")
        if len(data) < self.tag_size:
            raise AuthenticationError("message shorter than a tag")
        ciphertext = data[:-self.tag_size]
        if not hmac.compare_digest(
            data[-self.tag_size:], self._tag(nonce, ciphertext, aad)
        ):
            raise AuthenticationError("tag mismatch")
        return ciphertext

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        ciphertext = self._checked_ciphertext(nonce, data, aad)
        return xor_bytes(ciphertext, self._keystream(nonce, len(ciphertext)))

    def _xor_keystreams(self, nonces: list[bytes], bodies: list[bytes]) -> list[bytes]:
        """Each body XOR its nonce's keystream: one XOR for the batch."""
        keystream = self._keystream
        mixed = xor_bytes(
            b"".join(bodies),
            b"".join([keystream(nonce, len(body)) for nonce, body in zip(nonces, bodies)]),
        )
        out: list[bytes] = []
        start = 0
        for body in bodies:
            end = start + len(body)
            out.append(mixed[start:end])
            start = end
        return out

    def seal_blocks(self, items: list[AeadItem]) -> list[bytes]:
        """Batch seal, byte-identical to :meth:`encrypt` per item."""
        nonces = [nonce for nonce, _plaintext, _aad in items]
        if any(len(nonce) != self.nonce_size for nonce in nonces):
            raise ValueError("nonce must be 12 bytes")
        ciphertexts = self._xor_keystreams(
            nonces, [plaintext for _nonce, plaintext, _aad in items]
        )
        tag = self._tag
        return [
            ciphertext + tag(nonce, ciphertext, aad)
            for (nonce, _plaintext, aad), ciphertext in zip(items, ciphertexts)
        ]

    def open_blocks(self, items: list[AeadItem]) -> list[bytes]:
        """Batch open with the all-tags-first contract of the GCM path."""
        checked = self._checked_ciphertext
        ciphertexts = [checked(nonce, data, aad) for nonce, data, aad in items]
        # Every tag has verified; only now is any plaintext produced.
        return self._xor_keystreams(
            [nonce for nonce, _data, _aad in items], ciphertexts
        )


class CounterNonceSealer:
    """Sequence-numbered sealing for the recovery plane.

    Checkpoint and journal records are identified by a strictly
    increasing sequence number, so the AEAD nonce *is* the sequence
    number: uniqueness is structural (the journal never reuses a seq)
    instead of depending on persisted counter state — exactly what a
    sealer used to survive crashes must avoid.  The AAD binds each
    record to its role and position so the untrusted store cannot
    splice records across kinds or epochs.
    """

    def __init__(self, key: bytes, cipher_factory=Blake2Aead) -> None:
        self._cipher: AeadCipher = cipher_factory(key)

    def seal(self, seq: int, plaintext: bytes, aad: bytes = b"") -> bytes:
        nonce = seq.to_bytes(self._cipher.nonce_size, "big")
        return self._cipher.encrypt(nonce, plaintext, aad)

    def open(self, seq: int, data: bytes, aad: bytes = b"") -> bytes:
        nonce = seq.to_bytes(self._cipher.nonce_size, "big")
        return self._cipher.decrypt(nonce, data, aad)
