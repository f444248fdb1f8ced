"""The pluggable CryptoBackend tier: one interface, two engines.

HarDTAPE offloads contract-processing primitives to dedicated hardware
units; the software analogue is a registry of interchangeable crypto
*backends*, each a bundle of implementations for the two primitives
that differ on the wire path — the secure channel's AES-GCM and ECDSA
verification (channel signatures, receipts, the attestation chain) —
selected per :class:`~repro.core.device.DeviceConfig`.  A tier has two
hooks, ``aead_factory`` and ``verifier``; a verifier has one method,
``verify``.  Hashing is not a tier choice: every Keccak-256 is the one
pure-Python sponge behind :func:`~repro.crypto.keccak.keccak256`'s memo.

Two tiers register at import time:

=============  ==========================  ===========================
tier           ``type(aead_factory(k))``   ``type(verifier(q))``
=============  ==========================  ===========================
``hashlib``    ``AcceleratedAesGcmAead``   ``_OpensslVerifier``
``reference``  ``AesGcmAead``              ``PublicKey`` (``q`` itself)
=============  ==========================  ===========================

* ``hashlib`` — the default: AES-GCM and secp256k1 ECDSA verification
  in OpenSSL through the ``cryptography`` package (a hard dependency).
  It is the software stand-in for the paper's dedicated A.E.DMA
  silicon, and measured end to end it is the fastest tier
  (EXPERIMENTS ``TIER``).
* ``reference`` — block-at-a-time pure-Python AES-GCM and table-free
  ECDSA verification; the ground truth the other tier is gated against.
  Only tests, perf-bench and ``benchmarks/bench_fault_recovery.py``
  select it.

Each tier has one code path: nothing inside a tier falls back to
another.  RFC 6979 signing stays pure Python in both tiers, on the
one Jacobian group law, and ECDH is OpenSSL in both
(:mod:`repro.crypto.ecc`); neither is a tier hook.

The contract every backend must honour — and perf-bench's pairwise
identity gate enforces — is **byte identity**: same wire bytes, same
digests, same accept/reject decisions on the same inputs.  A backend
may only change wall clock, never a single protocol byte.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidSignature as _OpensslInvalid
from cryptography.hazmat.primitives import hashes as _hashes
from cryptography.hazmat.primitives.asymmetric import ec as _ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    encode_dss_signature,
)

from repro.crypto import ecc
from repro.crypto.ecc import InvalidSignature, PublicKey, Signature
from repro.crypto.suite import AcceleratedAesGcmAead, AeadCipher, AesGcmAead


class UnknownBackendError(ValueError):
    """A config named a crypto tier that is not registered.

    Raised *eagerly* — at :class:`~repro.core.device.DeviceConfig`
    construction — so a typo'd deployment dies with a typed error
    naming the known choices instead of failing deep inside device
    setup.
    """

    kind = "crypto"

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        super().__init__(
            f"unknown {self.kind} backend {name!r}; registered: {', '.join(known)}"
        )
        self.name = name
        self.known = known


class CryptoBackend:
    """One tier of crypto implementations (see module docstring).

    Subclasses override the factory hooks; the base class carries the
    reference behaviour so a backend only specifies what it
    accelerates.
    """

    name = "reference"

    def aead_factory(self, key: bytes) -> AeadCipher:
        """An AES-GCM cipher for the secure channel (wire-identical)."""
        return AesGcmAead(key)

    def verifier(self, public_key: PublicKey):
        """A per-peer-key message verifier: an object with ``verify``.

        The reference tier's verifier is the key itself:
        :meth:`PublicKey.verify` is the table-free check.
        """
        return public_key


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


class HashlibBackend(CryptoBackend):
    """The OpenSSL tier (the default)."""

    name = "hashlib"

    def aead_factory(self, key: bytes) -> AeadCipher:
        return AcceleratedAesGcmAead(key)

    def verifier(self, public_key: PublicKey):
        return _OpensslVerifier(public_key)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKENDS: dict[str, CryptoBackend] = {}

# The tier new devices, channels and the process get unless told
# otherwise: OpenSSL for the channel's AES-GCM and every signature check.
DEFAULT_BACKEND = "hashlib"


def register_backend(backend: CryptoBackend) -> CryptoBackend:
    """Register ``backend`` under its ``name`` (last registration wins)."""
    _BACKENDS[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_BACKENDS)


def get_backend(name: str) -> CryptoBackend:
    """Look up a backend; raises :class:`UnknownBackendError`."""
    backend = _BACKENDS.get(name)
    if backend is None:
        raise UnknownBackendError(name, available_backends())
    return backend


register_backend(CryptoBackend())  # "reference"
register_backend(HashlibBackend())

_active = _BACKENDS[DEFAULT_BACKEND]


def active_backend() -> CryptoBackend:
    """The process-wide backend: the tier the user-side checks use."""
    return _active


def activate(name: str) -> CryptoBackend:
    """Switch the process-wide backend.

    Per-device AEAD/verifier choices are threaded through
    ``DeviceConfig.crypto_backend``; the process tier is what the
    user-side checks (the attestation chain, receipts) and perf-bench
    read.  Safe to call at any time: tiers are byte-identical, so
    in-flight state never becomes inconsistent.
    """
    global _active
    _active = get_backend(name)
    return _active
