"""Property-based tests for the crypto substrate."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.crypto.gcm import AesGcm, AuthenticationError
from repro.crypto.keccak import Keccak256, keccak256
from repro.crypto.suite import Blake2Aead, xor_bytes
from tests.oracles import blake2_aead_seal

settings.register_profile("crypto", deadline=None)
settings.load_profile("crypto")


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
    gcm = AesGcm(key)
    assert gcm.decrypt(nonce, gcm.encrypt(nonce, plaintext, aad), aad) == plaintext


@given(
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=12, max_size=12),
    st.binary(max_size=2048),
)
def test_blake2_aead_roundtrip(key, nonce, plaintext):
    aead = Blake2Aead(key)
    assert aead.decrypt(nonce, aead.encrypt(nonce, plaintext)) == plaintext


@given(
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=12, max_size=12),
    st.binary(min_size=1, max_size=256),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0),
)
@settings(max_examples=50)
def test_blake2_aead_detects_any_flip(key, nonce, plaintext, xor_byte, position):
    from repro.crypto.gcm import AuthenticationError

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


# Up to 600 bytes: both sides of the length where xor_bytes switches
# from big-int arithmetic to one vector operation.
@given(st.binary(max_size=600))
def test_xor_bytes_involution(data):
    key = bytes((i * 7 + 3) % 256 for i in range(len(data)))
    mixed = xor_bytes(data, key)
    assert mixed == bytes(a ^ b for a, b in zip(data, key))
    assert xor_bytes(mixed, key) == data


# Mixed lengths including empty and past the vector-XOR threshold; the
# 1041-byte case is an ORAM slot body.
_batch_items = st.lists(
    st.tuples(
        st.binary(min_size=12, max_size=12),
        st.one_of(st.binary(max_size=300), st.binary(min_size=1041, max_size=1041)),
        st.binary(max_size=24),
    ),
    max_size=8,
)


@given(st.binary(min_size=32, max_size=32), _batch_items)
@settings(max_examples=80)
def test_blake2_batch_paths_equal_the_single_ones(key, items):
    aead = Blake2Aead(key)
    sealed = aead.seal_blocks(items)
    assert sealed == [aead.encrypt(*item) for item in items]
    assert sealed == [blake2_aead_seal(key, *item) for item in items]
    opened = aead.open_blocks(
        [(nonce, blob, aad) for (nonce, _pt, aad), blob in zip(items, sealed)]
    )
    assert opened == [plaintext for _nonce, plaintext, _aad in items]


@given(
    st.binary(min_size=32, max_size=32),
    _batch_items.filter(bool),
    st.data(),
)
@settings(max_examples=80)
def test_blake2_open_blocks_returns_nothing_if_any_byte_is_flipped(key, items, data):
    aead = Blake2Aead(key)
    batch = [
        [nonce, blob, aad]
        for (nonce, _pt, aad), blob in zip(items, aead.seal_blocks(items))
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
