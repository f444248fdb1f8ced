"""Property-based tests for the crypto substrate."""

from hypothesis import example, given, settings, strategies as st

import pytest

from repro.crypto.kdf import Drbg
from repro.crypto.keccak import Keccak256, keccak256
from repro.crypto.suite import (
    AcceleratedAesGcmAead,
    AesGcmAead,
    AuthenticationError,
    Blake2Aead,
    xor_bytes,
)


@given(st.binary(max_size=512))
def test_keccak_incremental_equals_oneshot(data):
    hasher = Keccak256()
    midpoint = len(data) // 2
    hasher.update(data[:midpoint])
    hasher.update(data[midpoint:])
    assert hasher.digest() == keccak256(data)


@given(st.binary(max_size=256), st.binary(max_size=256))
def test_keccak_injective_in_practice(a, b):
    if a != b:
        assert keccak256(a) != keccak256(b)


@given(
    st.binary(min_size=16, max_size=16),
    st.binary(min_size=12, max_size=12),
    st.binary(max_size=600),
    st.binary(max_size=64),
)
@settings(max_examples=40)
def test_gcm_roundtrip_with_aad(key, nonce, plaintext, aad):
    gcm = AesGcmAead(key)
    assert gcm.decrypt(nonce, gcm.encrypt(nonce, plaintext, aad), aad) == plaintext


# The sealing cipher against its oracle.  ``AcceleratedAesGcmAead`` seals
# every ORAM block, journal record, checkpoint and ticket; the pure-Python
# ``AesGcmAead`` shares no code with it.  Bodies run from empty to 2 KB
# with the 1 KB ORAM page drawn on purpose; keys are AES-128, -192 and
# -256.
_aead_keys = st.one_of(
    st.binary(min_size=16, max_size=16),
    st.binary(min_size=24, max_size=24),
    st.binary(min_size=32, max_size=32),
)
_aead_bodies = st.one_of(
    st.binary(max_size=2048), st.binary(min_size=1024, max_size=1024)
)
_AES_GCM_CIPHERS = (AcceleratedAesGcmAead, AesGcmAead)


# Every block-boundary shape under every key size as explicit examples:
# empty, partial, whole and multi-block bodies up to a 1 KB page plus a
# partial block, with 0 to 10 bytes of AAD.
_SHAPE_LENGTHS = (0, 1, 15, 16, 17, 48, 63, 64, 100, 1024, 1091)


def _shape_examples(test):
    rng = Drbg(b"gcm-equiv")
    for key_size in (16, 24, 32):
        for index, length in enumerate(_SHAPE_LENGTHS):
            test = example(
                bytes(range(key_size)), index.to_bytes(12, "big"),
                rng.random_bytes(length), rng.random_bytes(index % 21),
            )(test)
    return test


@given(_aead_keys, st.binary(min_size=12, max_size=12), _aead_bodies,
       st.binary(max_size=256))
@_shape_examples
@settings(max_examples=60)
def test_both_aes_gcm_ciphers_put_the_same_bytes_on_the_wire(key, nonce, body, aad):
    fast, oracle = (cipher(key) for cipher in _AES_GCM_CIPHERS)
    sealed = fast.encrypt(nonce, body, aad)
    assert sealed == oracle.encrypt(nonce, body, aad)
    assert len(sealed) == len(body) + 16
    assert fast.decrypt(nonce, sealed, aad) == oracle.decrypt(nonce, sealed, aad) == body


@given(_aead_keys, st.binary(min_size=12, max_size=12), _aead_bodies,
       st.binary(max_size=256), st.data())
@settings(max_examples=60)
def test_one_flipped_bit_anywhere_is_refused_by_both(key, nonce, body, aad, data):
    """Nonce, ciphertext body, tag or AAD: flip any single bit of what
    the opener is handed and both ciphers raise ``AuthenticationError``."""
    sealed = AcceleratedAesGcmAead(key).encrypt(nonce, body, aad)
    parts = {"nonce": nonce, "body": sealed[:-16], "tag": sealed[-16:], "aad": aad}
    field = data.draw(
        st.sampled_from([name for name, value in parts.items() if value]),
        label="field",
    )
    target = bytearray(parts[field])
    bit = data.draw(st.integers(0, 8 * len(target) - 1), label="bit")
    target[bit // 8] ^= 1 << (bit % 8)
    flipped = dict(parts, **{field: bytes(target)})
    for cipher in _AES_GCM_CIPHERS:
        with pytest.raises(AuthenticationError):
            cipher(key).decrypt(
                flipped["nonce"], flipped["body"] + flipped["tag"], flipped["aad"]
            )


# Blake2Aead seals nothing in the package, but it still has a public
# encrypt/decrypt/open_blocks surface, so it keeps its tamper checks.
@given(
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=12, max_size=12),
    st.binary(min_size=1, max_size=256),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0),
)
@settings(max_examples=50)
def test_blake2_aead_detects_any_flip(key, nonce, plaintext, xor_byte, position):
    if xor_byte == 0:
        return
    aead = Blake2Aead(key)
    sealed = bytearray(aead.encrypt(nonce, plaintext))
    sealed[position % len(sealed)] ^= xor_byte
    try:
        recovered = aead.decrypt(nonce, bytes(sealed))
    except AuthenticationError:
        return
    raise AssertionError(f"tamper not detected: {recovered!r}")


# Mixed lengths including empty; the 1041-byte case is an ORAM slot
# body.
_batch_items = st.lists(
    st.tuples(
        st.binary(min_size=12, max_size=12),
        st.one_of(st.binary(max_size=300), st.binary(min_size=1041, max_size=1041)),
        st.binary(max_size=24),
    ),
    min_size=1,
    max_size=8,
)


@given(st.binary(min_size=32, max_size=32), _batch_items, st.data())
@settings(max_examples=80)
def test_blake2_open_blocks_returns_nothing_if_any_byte_is_flipped(key, items, data):
    aead = Blake2Aead(key)
    batch = [[nonce, aead.encrypt(nonce, body, aad), aad] for nonce, body, aad in items]
    assert aead.open_blocks([tuple(item) for item in batch]) == [
        body for _nonce, body, _aad in items
    ]
    victim = data.draw(st.integers(0, len(batch) - 1), label="item")
    # Nonce, ciphertext||tag, or (when there is one) the AAD.
    field = data.draw(
        st.sampled_from([0, 1, 2] if batch[victim][2] else [0, 1]), label="field"
    )
    target = bytearray(batch[victim][field])
    position = data.draw(st.integers(0, len(target) - 1), label="byte")
    target[position] ^= data.draw(st.integers(1, 255), label="xor")
    batch[victim][field] = bytes(target)
    with pytest.raises(AuthenticationError):
        aead.open_blocks([tuple(item) for item in batch])


@given(_aead_keys, st.binary(max_size=32).filter(lambda n: len(n) != 12),
       st.binary(max_size=64))
@settings(max_examples=40)
def test_a_nonce_that_is_not_96_bits_is_a_value_error_on_both(key, nonce, body):
    sealed = AesGcmAead(key).encrypt(b"\x00" * 12, body)
    for cipher in _AES_GCM_CIPHERS:
        with pytest.raises(ValueError):
            cipher(key).encrypt(nonce, body)
        with pytest.raises(ValueError):
            cipher(key).decrypt(nonce, sealed)


@given(st.binary(max_size=600))
def test_xor_bytes_involution(data):
    key = bytes((i * 7 + 3) % 256 for i in range(len(data)))
    mixed = xor_bytes(data, key)
    assert mixed == bytes(a ^ b for a, b in zip(data, key))
    assert xor_bytes(mixed, key) == data
