"""The user↔Hypervisor secure channel.

After attestation, both sides hold a shared AES session key and each
other's session ECDSA public keys.  Channel messages are AES-GCM
encrypted and, when the signature feature is enabled (configurations
-ES and above), ECDSA-signed: one signature per bundle/trace, which is
why the paper's +80 ms signature overhead amortizes over bundle size.

The cipher and the signature check run on the crypto path's one
implementation, OpenSSL (:mod:`repro.crypto.backend`): an
``AcceleratedAesGcmAead`` seals, and the peer verification key is
wrapped in an ``_OpensslVerifier`` once, at channel construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.backend import _OpensslVerifier
from repro.crypto.ecc import InvalidSignature, PrivateKey, PublicKey, Signature
from repro.crypto.suite import AcceleratedAesGcmAead, AuthenticationError


# Counter nonces: the AES-GCM nonce size, big-endian.
_NONCE_BYTES = 12

# Domain label of the signed message digest (DESIGN §7.3).
CHANNEL_DIGEST_DOMAIN = b"hardtape.channel.v1"


def message_digest(nonce: bytes, ciphertext: bytes) -> bytes:
    """The 32 bytes a channel signature covers: a labelled SHA-256 over
    the nonce and the ciphertext (GCM tag included)."""
    return hashlib.sha256(CHANNEL_DIGEST_DOMAIN + nonce + ciphertext).digest()


class ChannelError(Exception):
    """Decryption or signature verification failed on a channel message."""


@dataclass(frozen=True)
class SealedMessage:
    """An encrypted (and optionally signed) channel payload."""

    nonce: bytes
    ciphertext: bytes  # includes the GCM tag
    signature: Signature | None = None

    @property
    def wire_size(self) -> int:
        size = len(self.nonce) + len(self.ciphertext)
        if self.signature is not None:
            size += 64
        return size


@dataclass
class ChannelStats:
    """Per-endpoint wire accounting (telemetry span attributes read it)."""

    messages_sealed: int = 0
    messages_opened: int = 0
    bytes_sealed: int = 0
    bytes_opened: int = 0


class SecureChannel:
    """One endpoint of the bidirectional channel."""

    def __init__(
        self,
        session_key: bytes,
        own_signing_key: PrivateKey | None = None,
        peer_verify_key: PublicKey | None = None,
        sign_messages: bool = True,
    ) -> None:
        self._cipher = AcceleratedAesGcmAead(session_key)
        # Held only when this endpoint signs.
        self._signing_key = own_signing_key if sign_messages else None
        self._peer_verifier = (
            _OpensslVerifier(peer_verify_key)
            if peer_verify_key is not None
            else None
        )
        self.sign_messages = self._signing_key is not None
        self._send_counter = 0
        # Replay protection: counter-based nonces must arrive strictly
        # increasing.  AES-GCM authenticates contents but not freshness;
        # without this check the SP could re-submit an old bundle.
        self._highest_received = 0
        self.stats = ChannelStats()

    @property
    def nonce_watermark(self) -> tuple[int, int]:
        """``(sent, highest received)`` counters — sealed into resumption
        tickets so a resumed channel cannot be replayed into the window
        the suspended one already consumed."""
        return self._send_counter, self._highest_received

    def restore_nonce_watermark(self, sent: int, received: int) -> None:
        """Continue a suspended channel's counter space after resumption.

        The resumed channel uses a *fresh* AEAD key (derived from the
        ticket's resumption secret and a fresh client nonce), so nonce
        reuse against the old key is impossible either way; restoring
        the watermark additionally preserves the strictly-increasing
        replay contract across the suspend/resume boundary.
        """
        if sent < 0 or received < 0:
            raise ValueError("nonce watermarks cannot be negative")
        self._send_counter = sent
        self._highest_received = received

    def seal(self, plaintext: bytes, aad: bytes = b"") -> SealedMessage:
        """Encrypt (and sign) an outgoing message."""
        self._send_counter += 1
        nonce = self._send_counter.to_bytes(_NONCE_BYTES, "big")
        ciphertext = self._cipher.encrypt(nonce, plaintext, aad)
        signature = None
        if self._signing_key is not None:
            signature = self._signing_key.sign(message_digest(nonce, ciphertext))
        sealed = SealedMessage(nonce, ciphertext, signature)
        self.stats.messages_sealed += 1
        self.stats.bytes_sealed += sealed.wire_size
        return sealed

    def _check_signature(self, message: SealedMessage) -> None:
        if message.signature is None:
            raise ChannelError("missing required signature")
        if self._peer_verifier is None:
            raise ChannelError("no peer verification key pinned")
        try:
            self._peer_verifier.verify(
                message_digest(message.nonce, message.ciphertext), message.signature
            )
        except InvalidSignature as exc:
            raise ChannelError("bad message signature") from exc

    def _decrypt_in_order(self, message: SealedMessage, aad: bytes) -> bytes:
        # The nonce is host-supplied: a wrong length is a bad message,
        # refused before it is read as a counter or reaches the cipher.
        if len(message.nonce) != _NONCE_BYTES:
            raise ChannelError(
                f"nonce is {len(message.nonce)} bytes, expected {_NONCE_BYTES}"
            )
        counter = int.from_bytes(message.nonce, "big")
        if counter <= self._highest_received:
            raise ChannelError(
                f"replayed or reordered message (nonce {counter}, "
                f"highest seen {self._highest_received})"
            )
        try:
            plaintext = self._cipher.decrypt(message.nonce, message.ciphertext, aad)
        except AuthenticationError as exc:
            raise ChannelError("message tampered or wrong key") from exc
        self._highest_received = counter
        self.stats.messages_opened += 1
        self.stats.bytes_opened += message.wire_size
        return plaintext

    def open(self, message: SealedMessage, aad: bytes = b"") -> bytes:
        """Verify and decrypt an incoming message."""
        if self.sign_messages:
            self._check_signature(message)
        return self._decrypt_in_order(message, aad)
