"""Property-based tests for the crypto substrate."""

from hypothesis import given, settings, strategies as st

from repro.crypto.gcm import AesGcm
from repro.crypto.keccak import Keccak256, keccak256
from repro.crypto.suite import Blake2Aead, xor_bytes

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


@given(st.binary(min_size=1, max_size=128))
def test_xor_bytes_involution(data):
    key = bytes((i * 7 + 3) % 256 for i in range(len(data)))
    assert xor_bytes(xor_bytes(data, key), key) == data
