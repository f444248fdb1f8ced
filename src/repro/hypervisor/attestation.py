"""Remote attestation and session establishment (paper §IV-A).

Following the SHEF-style scheme the paper adopts [44]: the user sends a
nonce; the Hypervisor answers with an attestation report that chains
device endorsement → boot measurement → a fresh session ECDSA key, with
the nonce signed in to stop replay.  The user and the Hypervisor then
run DHKE over their session keys and derive the AES session key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.backend import _OpensslVerifier
from repro.crypto.ecc import InvalidSignature, PrivateKey, PublicKey, Signature
from repro.crypto.kdf import hkdf_sha256
from repro.hardware.csu import BootReceipt, SecureBootError, verify_boot_receipt


class AttestationError(Exception):
    """The attestation report failed verification (attack A1)."""


@dataclass(frozen=True)
class AttestationReport:
    """What the Hypervisor returns for a user's attestation request."""

    boot_receipt: BootReceipt
    session_public: PublicKey  # Hypervisor's fresh session ECDSA key
    dh_public: PublicKey  # Hypervisor's DH share
    user_nonce: bytes
    signature: Signature  # device key over (nonce || session pub || dh pub)

    def signed_message(self) -> bytes:
        return _binding_digest(self.user_nonce, self.session_public, self.dh_public)


def _binding_digest(
    user_nonce: bytes, session_public: PublicKey, dh_public: PublicKey
) -> bytes:
    """What the device key signs: the fresh keys bound to the nonce."""
    return hashlib.sha256(
        b"hardtape-attest" + user_nonce + session_public.to_bytes() + dh_public.to_bytes()
    ).digest()


def build_report(
    boot_receipt: BootReceipt,
    device_key: PrivateKey,
    session_key: PrivateKey,
    dh_key: PrivateKey,
    user_nonce: bytes,
) -> AttestationReport:
    """Hypervisor side: assemble and sign the report."""
    session_public = session_key.public_key()
    dh_public = dh_key.public_key()
    return AttestationReport(
        boot_receipt=boot_receipt,
        session_public=session_public,
        dh_public=dh_public,
        user_nonce=user_nonce,
        signature=device_key.sign(
            _binding_digest(user_nonce, session_public, dh_public)
        ),
    )


def verify_report(
    report: AttestationReport,
    manufacturer_public: PublicKey,
    user_nonce: bytes,
    expected_measurement: bytes | None = None,
) -> None:
    """User side: check the full chain; raises on any forgery.

    * Manufacturer endorsement over the device key (A1),
    * device signature over the boot measurement (tampered image),
    * device signature binding the *fresh* session keys to this nonce
      (man-in-the-middle / replay).

    Every signature check runs on OpenSSL's verifier
    (:class:`~repro.crypto.backend._OpensslVerifier`), as the channel's does.
    """
    if report.user_nonce != user_nonce:
        raise AttestationError("nonce mismatch (replayed report?)")
    try:
        verify_boot_receipt(
            report.boot_receipt, manufacturer_public, expected_measurement
        )
    except (InvalidSignature, SecureBootError) as exc:
        raise AttestationError(f"boot chain invalid: {exc}") from exc
    try:
        _OpensslVerifier(report.boot_receipt.device_public).verify(
            report.signed_message(), report.signature
        )
    except InvalidSignature as exc:
        raise AttestationError("session binding signature invalid") from exc


def derive_session_key(
    own_dh: PrivateKey, peer_dh_public: PublicKey, transcript: bytes
) -> bytes:
    """DHKE + HKDF: the AES session key for the secure channel."""
    shared = own_dh.ecdh(peer_dh_public)
    return hkdf_sha256(shared, salt=b"hardtape-session", info=transcript)
