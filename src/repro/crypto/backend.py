"""OpenSSL's ECDSA verifier: the one path every signature check runs on.

HarDTAPE's secure channel is one fixed path (§IV-B): AES-GCM in the
A.E.DMA units and ECDSA verification in dedicated silicon.  The
software stand-in is OpenSSL through the ``cryptography`` package (a
hard dependency): the channel seals with
:class:`~repro.crypto.suite.AcceleratedAesGcmAead` and checks its
peer's signatures with :class:`_OpensslVerifier`, as do the user-side
checks — the attestation chain
(:func:`~repro.hypervisor.attestation.verify_report`,
:func:`~repro.hardware.csu.verify_boot_receipt`) and
:meth:`~repro.hypervisor.receipts.SignedReceipt.verify`.

The pure-Python implementations stay as the oracles this path is
checked against, and serve nothing: :class:`~repro.crypto.suite.AesGcmAead`
and the table-free :meth:`~repro.crypto.ecc.PublicKey.verify` (which
also backs ``ecrecover``).  RFC 6979 signing stays pure Python, on the
one Jacobian group law, and ECDH is OpenSSL (:mod:`repro.crypto.ecc`).
"""

from __future__ import annotations

from types import SimpleNamespace

from cryptography.exceptions import InvalidSignature as _OpensslInvalid
from cryptography.hazmat.primitives import hashes as _hashes
from cryptography.hazmat.primitives.asymmetric import ec as _ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    encode_dss_signature,
)

from repro.crypto import ecc
from repro.crypto.ecc import InvalidSignature, PublicKey, Signature

# A 32-byte digest is verified as-is (the SHA-256 label only fixes its size).
_PREHASHED_ECDSA = _ec.ECDSA(Prehashed(_hashes.SHA256()))


class _OpensslVerifier:
    """ECDSA verification through OpenSSL's secp256k1.

    Maps OpenSSL's refusal to the repo's typed
    :class:`~repro.crypto.ecc.InvalidSignature`, with the reference
    range pre-checks so out-of-range scalars fail with the same typed
    error before any point math runs.
    """

    def __init__(self, public_key: PublicKey) -> None:
        self.public_key = public_key
        self._openssl_key = _ec.EllipticCurvePublicNumbers(
            public_key.point.x, public_key.point.y, _ec.SECP256K1()
        ).public_key()

    def verify(self, message_hash: bytes, signature: Signature) -> None:
        if len(message_hash) != 32:
            raise ValueError("message hash must be 32 bytes")
        r, s = signature.r, signature.s
        if not (1 <= r < ecc.N and 1 <= s < ecc.N):
            raise InvalidSignature("signature scalars out of range")
        try:
            self._openssl_key.verify(
                encode_dss_signature(r, s),
                message_hash,
                _PREHASHED_ECDSA,
            )
        except _OpensslInvalid as exc:
            raise InvalidSignature("r mismatch") from exc


def active_backend() -> SimpleNamespace:
    """The crypto path's name, ``hashlib``, for the e2e ledger's
    ``crypto_tier`` environment stamp; nothing in ``repro`` reads it."""
    return SimpleNamespace(name="hashlib")
