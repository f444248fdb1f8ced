"""The user↔Hypervisor secure channel.

After attestation, both sides hold a shared AES session key and each
other's session ECDSA public keys.  Channel messages are AES-GCM
encrypted and, when the signature feature is enabled (configurations
-ES and above), ECDSA-signed: one signature per bundle/trace, which is
why the paper's +80 ms signature overhead amortizes over bundle size.

Which *implementations* run the AEAD and the signature check is a
:class:`~repro.crypto.backend.CryptoBackend` choice (threaded from
``DeviceConfig.crypto_backend``): every tier is wire-identical, so the
two endpoints of one channel may even run different tiers.  The peer
verification key is wrapped in the backend's verifier once at channel
construction — for the precomputation tiers that builds the per-key
window tables a message stream amortizes — and :meth:`open_batch`
verifies a burst of queued messages through the backend's batched
ECDSA path before any plaintext is released.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.backend import DEFAULT_BACKEND, CryptoBackend, get_backend
from repro.crypto.ecc import InvalidSignature, PrivateKey, PublicKey, Signature
from repro.crypto.gcm import AuthenticationError
from repro.crypto.keccak import keccak256


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
        cipher_factory=None,
        backend: CryptoBackend | str | None = None,
    ) -> None:
        if isinstance(backend, str):
            backend = get_backend(backend)
        self._backend = backend or get_backend(DEFAULT_BACKEND)
        if cipher_factory is None:
            cipher_factory = self._backend.aead_factory
        self._cipher = cipher_factory(session_key)
        # Held only when this endpoint signs.
        self._signing_key = own_signing_key if sign_messages else None
        self._peer_verify_key = peer_verify_key
        self._peer_verifier = (
            self._backend.verifier(peer_verify_key)
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
        nonce = self._send_counter.to_bytes(12, "big")
        ciphertext = self._cipher.encrypt(nonce, plaintext, aad)
        signature = None
        if self._signing_key is not None:
            signature = self._signing_key.sign(keccak256(nonce + ciphertext))
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
                keccak256(message.nonce + message.ciphertext), message.signature
            )
        except InvalidSignature as exc:
            raise ChannelError("bad message signature") from exc

    def _decrypt_in_order(self, message: SealedMessage, aad: bytes) -> bytes:
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

    def open_batch(
        self, messages: list[SealedMessage], aad: bytes = b""
    ) -> list[bytes]:
        """Verify-and-open a burst of queued messages.

        All signatures are checked first — through the backend's batched
        ECDSA path, which shares the per-key precomputation across the
        whole burst — and only then are payloads decrypted, in nonce
        order, under the usual strictly-increasing replay contract.  A
        bad signature anywhere raises before *any* plaintext is
        released or the replay watermark moves; decryption failures
        behave exactly as a sequential :meth:`open` loop would.
        Byte-identical to calling :meth:`open` in a loop on an
        all-valid burst (property-tested).
        """
        if self.sign_messages:
            if self._peer_verify_key is None:
                raise ChannelError("no peer verification key pinned")
            triples = []
            for message in messages:
                if message.signature is None:
                    raise ChannelError("missing required signature")
                triples.append(
                    (
                        self._peer_verify_key,
                        keccak256(message.nonce + message.ciphertext),
                        message.signature,
                    )
                )
            try:
                self._backend.ecdsa_verify_many(triples)
            except InvalidSignature as exc:
                raise ChannelError("bad message signature") from exc
        return [self._decrypt_in_order(message, aad) for message in messages]
