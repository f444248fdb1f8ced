"""The pluggable CryptoBackend tier: registry, validation, identity.

Every registered backend must be a drop-in for every other one — same
AEAD wire bytes, same ECDSA verdicts — and Keccak-256, which is not a
tier choice, must give the same digests whichever tier is active.  These tests
pin that invariant with known-answer vectors and cross-backend checks;
the perf plane (``perf-bench``) additionally gates whole-workload
byte-identity pairwise.
"""

import pytest

from repro.core.device import DeviceConfig
from repro.crypto.backend import (
    DEFAULT_BACKEND,
    UnknownBackendError,
    activate,
    active_backend,
    available_backends,
    get_backend,
)
from repro.crypto.keccak import (
    keccak256,
    keccak_memo_stats,
    reset_keccak_memo,
)

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
# Registry + DeviceConfig validation
# ---------------------------------------------------------------------------


def test_registry_lists_both_tiers():
    assert available_backends() == ("reference", "hashlib")
    for name in available_backends():
        assert get_backend(name).name == name


def test_unknown_backend_is_typed():
    with pytest.raises(UnknownBackendError) as excinfo:
        get_backend("gpu")
    assert excinfo.value.kind == "crypto"
    assert excinfo.value.name == "gpu"
    assert "reference" in str(excinfo.value)


def test_device_config_rejects_unknown_crypto_backend():
    with pytest.raises(UnknownBackendError) as excinfo:
        DeviceConfig(crypto_backend="quantum")
    assert excinfo.value.kind == "crypto"


def test_device_config_accepts_every_registered_backend():
    for name in available_backends():
        assert DeviceConfig(crypto_backend=name).crypto_backend == name


def test_activate_roundtrip():
    before = active_backend().name
    try:
        activate("reference")
        assert active_backend().name == "reference"
    finally:
        activate(before)
    assert active_backend().name == before


def test_the_default_tier_is_openssl():
    """One path per tier: the default resolves to OpenSSL for the AEAD
    and the verifier, unconditionally (``cryptography`` is a
    dependency); the reference tier's verifier is the key itself."""
    from repro.crypto.backend import _OpensslVerifier
    from repro.crypto.ecc import PrivateKey, PublicKey
    from repro.crypto.suite import AcceleratedAesGcmAead, AesGcmAead

    key = PrivateKey.from_bytes(b"\x07" * 32).public_key()

    def resolved(name):
        tier = get_backend(name)
        return type(tier.aead_factory(bytes(32))), type(tier.verifier(key))

    assert DEFAULT_BACKEND == "hashlib" == DeviceConfig().crypto_backend
    assert resolved(DEFAULT_BACKEND) == (AcceleratedAesGcmAead, _OpensslVerifier)
    assert resolved("reference") == (AesGcmAead, PublicKey)
    assert get_backend("reference").verifier(key) is key


def test_default_backend_is_registered():
    assert DEFAULT_BACKEND in available_backends()


# ---------------------------------------------------------------------------
# Keccak known answers under each active tier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", ["reference", "hashlib"])
def test_keccak256_under_each_activated_backend(backend_name):
    before = active_backend().name
    try:
        activate(backend_name)
        reset_keccak_memo()
        for message, expected in KNOWN_VECTORS:
            assert keccak256(message).hex() == expected
    finally:
        activate(before)


# ---------------------------------------------------------------------------
# AEAD wire identity across backends
# ---------------------------------------------------------------------------


def test_aead_wire_bytes_identical_across_backends():
    key = bytes(range(32))
    nonce = b"\x00" * 11 + b"\x07"
    plaintext = b"pre-execution trace report" * 9
    aad = b"session-42"
    blobs = {
        name: get_backend(name).aead_factory(key).encrypt(nonce, plaintext, aad)
        for name in available_backends()
    }
    assert len(set(blobs.values())) == 1, blobs.keys()
    for name, blob in blobs.items():
        assert (
            get_backend(name).aead_factory(key).decrypt(nonce, blob, aad)
            == plaintext
        )


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
