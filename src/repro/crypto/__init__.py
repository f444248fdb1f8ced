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
the ``PublicKey`` ``q`` itself.  Signing and Keccak-256 are pure Python
in both, and ECDH is OpenSSL in both: hashing is one sponge behind
:func:`keccak256`'s memo, not a tier choice, and neither is ECDH.
"""
