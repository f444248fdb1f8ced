"""AES and AES-GCM against FIPS-197 / NIST SP 800-38D vectors.

Also the repro.perf equivalence suite: the optimized CTR/GHASH/batch
paths must be byte-identical to the frozen pre-optimization references
in :mod:`repro.perf.reference` on every input shape.
"""

import time

import pytest

from repro.crypto.aes import AES
from repro.crypto.gcm import AesGcm, AuthenticationError, _ghash_table, _Ghash
from repro.crypto.kdf import Drbg
from repro.perf.reference import (
    ReferenceAesGcm,
    ReferenceGhash,
    reference_ctr_keystream,
    reference_ghash_table,
)


def test_fips197_aes128():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    ciphertext = AES(key).encrypt_block(plaintext)
    assert ciphertext.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_fips197_aes192():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert AES(key).encrypt_block(plaintext).hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"


def test_fips197_aes256():
    key = bytes.fromhex(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    )
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert AES(key).encrypt_block(plaintext).hex() == "8ea2b7ca516745bfeafc49904b496089"


def test_invalid_key_length_rejected():
    with pytest.raises(ValueError):
        AES(b"short")


def test_invalid_block_length_rejected():
    with pytest.raises(ValueError):
        AES(b"k" * 16).encrypt_block(b"too short")


def test_ctr_keystream_length():
    cipher = AES(b"k" * 16)
    ks = cipher.ctr_keystream(b"\x00" * 16, 100)
    assert len(ks) == 100


# NIST GCM test case 3.
_GCM_KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
_GCM_IV = bytes.fromhex("cafebabefacedbaddecaf888")
_GCM_PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
)
_GCM_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


def test_nist_gcm_vector():
    gcm = AesGcm(_GCM_KEY)
    out = gcm.encrypt(_GCM_IV, _GCM_PT, _GCM_AAD)
    assert out[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"
    assert gcm.decrypt(_GCM_IV, out, _GCM_AAD) == _GCM_PT


def test_gcm_empty_plaintext():
    gcm = AesGcm(b"k" * 16)
    out = gcm.encrypt(b"n" * 12, b"")
    assert len(out) == 16  # tag only
    assert gcm.decrypt(b"n" * 12, out) == b""


def test_gcm_tamper_ciphertext_detected():
    gcm = AesGcm(b"k" * 16)
    out = bytearray(gcm.encrypt(b"n" * 12, b"secret payload"))
    out[0] ^= 1
    with pytest.raises(AuthenticationError):
        gcm.decrypt(b"n" * 12, bytes(out))


def test_gcm_tamper_tag_detected():
    gcm = AesGcm(b"k" * 16)
    out = bytearray(gcm.encrypt(b"n" * 12, b"secret payload"))
    out[-1] ^= 0x80
    with pytest.raises(AuthenticationError):
        gcm.decrypt(b"n" * 12, bytes(out))


def test_gcm_wrong_aad_detected():
    gcm = AesGcm(b"k" * 16)
    out = gcm.encrypt(b"n" * 12, b"payload", aad=b"header-a")
    with pytest.raises(AuthenticationError):
        gcm.decrypt(b"n" * 12, out, aad=b"header-b")


def test_gcm_wrong_key_detected():
    out = AesGcm(b"k" * 16).encrypt(b"n" * 12, b"payload")
    with pytest.raises(AuthenticationError):
        AesGcm(b"j" * 16).decrypt(b"n" * 12, out)


def test_gcm_short_message_rejected():
    with pytest.raises(AuthenticationError):
        AesGcm(b"k" * 16).decrypt(b"n" * 12, b"short")


def test_gcm_nonce_length_enforced():
    gcm = AesGcm(b"k" * 16)
    with pytest.raises(ValueError):
        gcm.encrypt(b"short", b"x")
    with pytest.raises(ValueError):
        gcm.decrypt(b"short", b"x" * 32)


def test_gcm_distinct_nonces_distinct_ciphertexts():
    gcm = AesGcm(b"k" * 16)
    a = gcm.encrypt((1).to_bytes(12, "big"), b"same message")
    b = gcm.encrypt((2).to_bytes(12, "big"), b"same message")
    assert a != b


def test_nist_gcm_empty_pt_empty_aad_tag():
    # McGrew & Viega test case 1: all-zero key and IV, no data at all.
    gcm = AesGcm(bytes(16))
    out = gcm.encrypt(bytes(12), b"")
    assert out.hex() == "58e2fccefa7e3061367f1d57a4e7455a"


def test_nist_gcm_aad_only_vector():
    # NIST CAVS gcmEncryptExtIV128, PTlen=0 / AADlen=128, count 0:
    # authentication with no plaintext exercises the GHASH/J0 path alone.
    gcm = AesGcm(bytes.fromhex("77be63708971c4e240d1cb79e8d77feb"))
    iv = bytes.fromhex("e0e00f19fed7ba0136a797f3")
    aad = bytes.fromhex("7a43ec1d9c0a5a78a0b16533a6213cab")
    out = gcm.encrypt(iv, b"", aad)
    assert out.hex() == "209fcc8d3675ed938e9c7166709dd946"
    assert gcm.decrypt(iv, out, aad) == b""
    with pytest.raises(AuthenticationError):
        gcm.decrypt(iv, out, b"")


# ---------------------------------------------------------------------------
# repro.perf equivalence: optimized paths vs frozen references
# ---------------------------------------------------------------------------

_SHAPE_LENGTHS = [0, 1, 15, 16, 17, 48, 63, 64, 100, 1024, 1091]


@pytest.mark.parametrize("key_size", [16, 24, 32])
def test_ctr_keystream_matches_reference_all_shapes(key_size):
    cipher = AES(bytes(range(key_size)))
    counter_block = bytes(range(12)) + b"\x00\x00\x00\x02"
    for length in _SHAPE_LENGTHS:
        assert cipher.ctr_keystream(counter_block, length) == \
            reference_ctr_keystream(cipher, counter_block, length)


def test_ctr_keystream_counter_wraparound():
    """The 32-bit counter word wraps modulo 2^32 (and never carries into
    the nonce prefix) on both the scalar and the vectorized path."""
    cipher = AES(b"w" * 16)
    for start in (0xFFFFFFFE, 0xFFFFFFFF, 0xFFFFFFFC):
        counter_block = b"\xab" * 12 + start.to_bytes(4, "big")
        for length in (17, 33, 160):  # spans the scalar/vector cutover
            assert cipher.ctr_keystream(counter_block, length) == \
                reference_ctr_keystream(cipher, counter_block, length)


def test_ctr_keystream_rejects_bad_counter_block():
    cipher = AES(b"k" * 16)
    with pytest.raises(ValueError):
        cipher.ctr_keystream(b"\x00" * 15, 32)


def test_ctr_keystream_many_matches_per_message():
    cipher = AES(b"m" * 16)
    rng = Drbg(b"ctr-many")
    counter_blocks, lengths = [], []
    for i in range(40):
        counter_blocks.append(
            bytes(rng.randint(256) for _ in range(12)) + b"\x00\x00\x00\x02"
        )
        lengths.append(_SHAPE_LENGTHS[i % len(_SHAPE_LENGTHS)])
    many = cipher.ctr_keystream_many(counter_blocks, lengths)
    for block, length, stream in zip(counter_blocks, lengths, many):
        assert stream == cipher.ctr_keystream(block, length)


def test_ghash_table_equals_the_bit_serial_definition():
    # The table is built by linearity; it must equal one bit-serial
    # GF(2^128) product per entry, the definition it replaced.
    rng = Drbg(b"ghash-table")
    subkeys = [0, 1, 1 << 127, 2**128 - 1] + [
        int.from_bytes(rng.random_bytes(16), "big") for _ in range(3)
    ]
    for h in subkeys:
        assert _ghash_table(h) == reference_ghash_table(h)


@pytest.mark.perf
def test_ghash_table_build_is_linear_not_bit_serial():
    # A ratio within one run, so it holds on a noisy runner: ~0.5 ms
    # against ~80 ms when written, gated at 20x.
    h = int.from_bytes(AES(b"g" * 16).encrypt_block(bytes(16)), "big")

    def best_of(build, runs):
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            build(h)
            times.append(time.perf_counter() - start)
        return min(times)

    slow = best_of(reference_ghash_table, 2)
    fast = best_of(_ghash_table, 10)
    assert slow >= 20 * fast, f"bit-serial {slow * 1e3:.2f} ms vs linear {fast * 1e3:.2f} ms"


def test_ghash_matches_reference():
    h = int.from_bytes(AES(b"g" * 16).encrypt_block(bytes(16)), "big")
    tables = _ghash_table(h)
    rng = Drbg(b"ghash")
    for length in _SHAPE_LENGTHS:
        data = bytes(rng.randint(256) for _ in range(length))
        fast, slow = _Ghash(tables), ReferenceGhash(tables)
        fast.update(data)
        slow.update(data)
        assert fast.digest() == slow.digest()
        # Split updates must agree with one-shot updates on chunk seams.
        split = _Ghash(tables)
        split.update(data[:length // 2])
        split.update(data[length // 2:])
        if length % 16 == 0 and length // 2 % 16 == 0:
            assert split.digest() == fast.digest()


@pytest.mark.parametrize("key_size", [16, 24, 32])
def test_gcm_matches_reference_implementation(key_size):
    key = bytes(range(key_size))
    fast, slow = AesGcm(key), ReferenceAesGcm(key)
    rng = Drbg(b"gcm-equiv")
    for index, length in enumerate(_SHAPE_LENGTHS):
        nonce = index.to_bytes(12, "big")
        plaintext = bytes(rng.randint(256) for _ in range(length))
        aad = bytes(rng.randint(256) for _ in range(index % 21))
        sealed = fast.encrypt(nonce, plaintext, aad)
        assert sealed == slow.encrypt(nonce, plaintext, aad)
        assert fast.decrypt(nonce, sealed, aad) == plaintext
        assert slow.decrypt(nonce, sealed, aad) == plaintext


def test_gcm_batch_seal_open_matches_per_item():
    gcm = AesGcm(b"b" * 16)
    rng = Drbg(b"gcm-batch")
    items = []
    for index, length in enumerate(_SHAPE_LENGTHS):
        nonce = (1000 + index).to_bytes(12, "big")
        plaintext = bytes(rng.randint(256) for _ in range(length))
        items.append((nonce, plaintext, b"aad-%d" % index))
    sealed = gcm.seal_blocks(items)
    for (nonce, plaintext, aad), blob in zip(items, sealed):
        assert blob == gcm.encrypt(nonce, plaintext, aad)
    opened = gcm.open_blocks(
        [(nonce, blob, aad) for (nonce, _, aad), blob in zip(items, sealed)]
    )
    assert opened == [plaintext for _, plaintext, _ in items]


def test_gcm_batch_open_is_all_or_nothing():
    gcm = AesGcm(b"b" * 16)
    nonce_a, nonce_b = (1).to_bytes(12, "big"), (2).to_bytes(12, "big")
    good = gcm.encrypt(nonce_a, b"good block")
    bad = bytearray(gcm.encrypt(nonce_b, b"bad block"))
    bad[-1] ^= 1
    with pytest.raises(AuthenticationError):
        gcm.open_blocks([(nonce_a, good, b""), (nonce_b, bytes(bad), b"")])
