"""The one crypto path, Keccak-256 known answers and the memo's counters.

The crypto path (OpenSSL AES-GCM and verification) is named
``hashlib``, the name its tier had; the pure-Python implementations,
named ``reference`` here as their tier was, are its oracles.  The
channel's use of the path is pinned in ``test_hypervisor.py``; its
agreement with the oracles is property-checked in
``tests/property/test_prop_crypto.py`` (the AEAD) and
``tests/property/test_prop_crypto_backends.py`` (the verifier).
"""

import pytest
from cryptography.hazmat.primitives.asymmetric.ec import EllipticCurvePublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.crypto.backend import _OpensslVerifier, active_backend
from repro.crypto.ecc import PrivateKey
from repro.crypto.keccak import (
    Keccak256,
    keccak256,
    keccak_memo_stats,
    reset_keccak_memo,
)
from repro.crypto.suite import AcceleratedAesGcmAead

# Ethereum Keccak-256 known answers (0x01 multi-rate padding, not NIST
# SHA3).  The first two are the canonical published vectors; the
# 200-byte message spans two rate-sized (136 B) blocks and is pinned
# against the repo's KAT-validated scalar sponge, so a broken
# multi-block absorb cannot pass.
KNOWN_VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (
        b"\xa3" * 200,
        "3a57666b048777f2c953dc4456f45a2588e1cb6f2da760122d530ac2ce607d4a",
    ),
]


# ---------------------------------------------------------------------------
# The crypto path
# ---------------------------------------------------------------------------


def test_the_default_tier_is_openssl():
    """There is one path, ``hashlib``, and it is OpenSSL: the AEAD seals
    with ``cryptography``'s AES-GCM and the verifier holds an OpenSSL
    secp256k1 key for the same point (``cryptography`` is a dependency,
    so nothing falls back)."""
    assert active_backend().name == "hashlib"
    assert type(AcceleratedAesGcmAead(bytes(32))._aead) is AESGCM
    key = PrivateKey.from_bytes(b"\x07" * 32).public_key()
    verifier = _OpensslVerifier(key)
    assert verifier.public_key is key
    assert isinstance(verifier._openssl_key, EllipticCurvePublicKey)
    numbers = verifier._openssl_key.public_numbers()
    assert (numbers.x, numbers.y) == (key.point.x, key.point.y)


# ---------------------------------------------------------------------------
# Keccak known answers
# ---------------------------------------------------------------------------


def _reference_keccak256(message: bytes) -> bytes:
    """The unmemoised sponge, fed one byte at a time across block seams."""
    hasher = Keccak256()
    for byte in message:
        hasher.update(bytes([byte]))
    return hasher.digest()


@pytest.mark.parametrize(
    "digest", [keccak256, _reference_keccak256], ids=["hashlib", "reference"]
)
def test_keccak256_under_each_activated_backend(digest):
    """Keccak-256 is no tier choice: the memoised ``keccak256`` the
    path calls and the byte-fed reference sponge give the known answers."""
    reset_keccak_memo()
    for message, expected in KNOWN_VECTORS:
        assert digest(message).hex() == expected


# ---------------------------------------------------------------------------
# Memo counters
# ---------------------------------------------------------------------------


def test_keccak_memo_counters_track_hits_and_misses():
    reset_keccak_memo()
    keccak256(b"counter-probe")
    keccak256(b"counter-probe")
    stats = keccak_memo_stats()
    assert stats.misses == 1
    assert stats.hits == 1


def test_access_summary_carries_keccak_counters():
    from repro.oram.client import AccessSummary

    summary = AccessSummary(keccak_hits=3, keccak_misses=1)
    assert summary.keccak_hits == 3
    assert summary.keccak_misses == 1
