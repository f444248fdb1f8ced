"""Cryptographic substrate for the HarDTAPE simulation.

Implemented from scratch and validated against public test vectors:
Keccak-256 (Ethereum's hash), AES-GCM, secp256k1 ECDSA/ECDH, HKDF, a
deterministic DRBG, and a simulated PUF root of trust.

AES-GCM comes twice, wire-identical (:mod:`repro.crypto.suite`): through
OpenSSL, which seals every served byte, and block at a time in pure
Python, the oracle it is checked against.  The secure channel's AEAD and
its signature verifier are the two hooks of a registered *backend* tier
(:mod:`repro.crypto.backend`), selected per device config: ``hashlib``,
the default, whose ``aead_factory(k)`` is an ``AcceleratedAesGcmAead``
and whose ``verifier(q)`` an ``_OpensslVerifier`` (both OpenSSL through
``cryptography``); and ``reference``, the pure-Python oracle, whose
``aead_factory(k)`` is an ``AesGcmAead`` and whose ``verifier(q)`` is
the ``PublicKey`` ``q`` itself.  Signing, ECDH and Keccak-256 are pure
Python in both: hashing is one sponge behind :func:`keccak256`'s memo,
not a tier choice.
"""

from repro.crypto.aes import AES
from repro.crypto.ecc import (
    InvalidSignature,
    Point,
    PrivateKey,
    PublicKey,
    Signature,
)
from repro.crypto.kdf import Drbg, hkdf_sha256
from repro.crypto.keccak import (
    Keccak256,
    keccak256,
    keccak_memo_stats,
)
from repro.crypto.puf import DeviceIdentity, Manufacturer, SimulatedPuf
from repro.crypto.suite import AuthenticationError
from repro.crypto.backend import (
    CryptoBackend,
    UnknownBackendError,
    activate,
    active_backend,
    available_backends,
    get_backend,
)

__all__ = [
    "AES",
    "AuthenticationError",
    "CryptoBackend",
    "DeviceIdentity",
    "Drbg",
    "InvalidSignature",
    "Keccak256",
    "keccak256",
    "keccak_memo_stats",
    "Manufacturer",
    "Point",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "SimulatedPuf",
    "UnknownBackendError",
    "activate",
    "active_backend",
    "available_backends",
    "get_backend",
    "hkdf_sha256",
]
