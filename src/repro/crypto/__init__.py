"""Cryptographic substrate for the HarDTAPE simulation.

Implemented from scratch and validated against public test vectors:
Keccak-256 (Ethereum's hash), AES-GCM, secp256k1 ECDSA/ECDH, HKDF, a
deterministic DRBG, and a simulated PUF root of trust.

AES-GCM comes twice, wire-identical (:mod:`repro.crypto.suite`): through
OpenSSL, which seals every served byte, and block at a time in pure
Python, the oracle it is checked against.  The secure channel has one
crypto path, OpenSSL through ``cryptography``: an
``AcceleratedAesGcmAead`` seals its messages and an ``_OpensslVerifier``
(:mod:`repro.crypto.backend`) checks every signature, the channel's and
the user-side attestation and receipt checks alike; the pure-Python
``PublicKey.verify`` is its oracle (and ``ecrecover``'s check).  ECDH is
OpenSSL too; signing and Keccak-256 are pure Python, and hashing is one
sponge behind :func:`keccak256`'s memo.
"""
