"""AES and AES-GCM against FIPS-197 / NIST SP 800-38D vectors.

Every SP 800-38D vector is checked on both AES-GCMs: the pure-Python
:class:`~repro.crypto.suite.AesGcmAead` and OpenSSL's
:class:`~repro.crypto.suite.AcceleratedAesGcmAead`.  The two are held
byte-identical on every input shape by
``tests/property/test_prop_crypto.py``.
"""

import time

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.crypto.aes import AES, ghash_tables
from repro.crypto.kdf import Drbg
from repro.crypto.suite import AcceleratedAesGcmAead, AesGcmAead, AuthenticationError
from tests.oracles import bit_serial_ghash_tables

_AES_GCM_CIPHERS = (AesGcmAead, AcceleratedAesGcmAead)


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
    for cipher in _AES_GCM_CIPHERS:
        gcm = cipher(_GCM_KEY)
        out = gcm.encrypt(_GCM_IV, _GCM_PT, _GCM_AAD)
        assert out[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47", cipher.__name__
        assert gcm.decrypt(_GCM_IV, out, _GCM_AAD) == _GCM_PT


def test_gcm_empty_plaintext():
    gcm = AesGcmAead(b"k" * 16)
    out = gcm.encrypt(b"n" * 12, b"")
    assert len(out) == 16  # tag only
    assert gcm.decrypt(b"n" * 12, out) == b""


def test_gcm_tamper_ciphertext_detected():
    gcm = AesGcmAead(b"k" * 16)
    out = bytearray(gcm.encrypt(b"n" * 12, b"secret payload"))
    out[0] ^= 1
    with pytest.raises(AuthenticationError):
        gcm.decrypt(b"n" * 12, bytes(out))


def test_gcm_tamper_tag_detected():
    gcm = AesGcmAead(b"k" * 16)
    out = bytearray(gcm.encrypt(b"n" * 12, b"secret payload"))
    out[-1] ^= 0x80
    with pytest.raises(AuthenticationError):
        gcm.decrypt(b"n" * 12, bytes(out))


def test_gcm_wrong_aad_detected():
    gcm = AesGcmAead(b"k" * 16)
    out = gcm.encrypt(b"n" * 12, b"payload", aad=b"header-a")
    with pytest.raises(AuthenticationError):
        gcm.decrypt(b"n" * 12, out, aad=b"header-b")


def test_gcm_wrong_key_detected():
    out = AesGcmAead(b"k" * 16).encrypt(b"n" * 12, b"payload")
    with pytest.raises(AuthenticationError):
        AesGcmAead(b"j" * 16).decrypt(b"n" * 12, out)


def test_gcm_short_message_rejected():
    with pytest.raises(AuthenticationError):
        AesGcmAead(b"k" * 16).decrypt(b"n" * 12, b"short")


def test_gcm_nonce_length_enforced():
    gcm = AesGcmAead(b"k" * 16)
    with pytest.raises(ValueError):
        gcm.encrypt(b"short", b"x")
    with pytest.raises(ValueError):
        gcm.decrypt(b"short", b"x" * 32)


def test_gcm_distinct_nonces_distinct_ciphertexts():
    gcm = AesGcmAead(b"k" * 16)
    a = gcm.encrypt((1).to_bytes(12, "big"), b"same message")
    b = gcm.encrypt((2).to_bytes(12, "big"), b"same message")
    assert a != b


def test_nist_gcm_empty_pt_empty_aad_tag():
    # McGrew & Viega test case 1: all-zero key and IV, no data at all.
    for cipher in _AES_GCM_CIPHERS:
        out = cipher(bytes(16)).encrypt(bytes(12), b"")
        assert out.hex() == "58e2fccefa7e3061367f1d57a4e7455a", cipher.__name__


def test_nist_gcm_aad_only_vector():
    # NIST CAVS gcmEncryptExtIV128, PTlen=0 / AADlen=128, count 0:
    # authentication with no plaintext exercises the GHASH/J0 path alone.
    iv = bytes.fromhex("e0e00f19fed7ba0136a797f3")
    aad = bytes.fromhex("7a43ec1d9c0a5a78a0b16533a6213cab")
    for cipher in _AES_GCM_CIPHERS:
        gcm = cipher(bytes.fromhex("77be63708971c4e240d1cb79e8d77feb"))
        out = gcm.encrypt(iv, b"", aad)
        assert out.hex() == "209fcc8d3675ed938e9c7166709dd946", cipher.__name__
        assert gcm.decrypt(iv, out, aad) == b""
        with pytest.raises(AuthenticationError):
            gcm.decrypt(iv, out, b"")


# ---------------------------------------------------------------------------
# CTR, the GHASH tables and the per-item batch surface
# ---------------------------------------------------------------------------


def test_ctr_keystream_counter_wraparound():
    """The 32-bit counter word wraps modulo 2^32 and never carries into
    the nonce prefix (SP 800-38D inc32): OpenSSL's AES over the counter
    blocks spelled out is the oracle."""
    key = b"w" * 16
    cipher = AES(key)
    for start in (0xFFFFFFFE, 0xFFFFFFFF, 0xFFFFFFFC):
        counter_block = b"\xab" * 12 + start.to_bytes(4, "big")
        for length in (17, 33, 160):
            blocks = b"".join(
                b"\xab" * 12 + ((start + i) % 2**32).to_bytes(4, "big")
                for i in range((length + 15) // 16)
            )
            expected = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(blocks)
            assert cipher.ctr_keystream(counter_block, length) == expected[:length]


def test_ctr_keystream_rejects_bad_counter_block():
    cipher = AES(b"k" * 16)
    with pytest.raises(ValueError):
        cipher.ctr_keystream(b"\x00" * 15, 32)


def test_ghash_table_equals_the_bit_serial_definition():
    # The table is built by linearity; it must equal one bit-serial
    # GF(2^128) product per entry, the definition it replaced.
    rng = Drbg(b"ghash-table")
    subkeys = [0, 1, 1 << 127, 2**128 - 1] + [
        int.from_bytes(rng.random_bytes(16), "big") for _ in range(3)
    ]
    for h in subkeys:
        assert ghash_tables(h) == bit_serial_ghash_tables(h)


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

    slow = best_of(bit_serial_ghash_tables, 2)
    fast = best_of(ghash_tables, 10)
    assert slow >= 20 * fast, f"bit-serial {slow * 1e3:.2f} ms vs linear {fast * 1e3:.2f} ms"


def test_gcm_batch_seal_open_matches_per_item():
    gcm = AesGcmAead(b"b" * 16)
    rng = Drbg(b"gcm-batch")
    items = []
    for index, length in enumerate((0, 1, 15, 16, 17, 48, 63, 64, 100, 1024, 1091)):
        nonce = (1000 + index).to_bytes(12, "big")
        items.append((nonce, rng.random_bytes(length), b"aad-%d" % index))
    sealed = gcm.seal_blocks(items)
    for (nonce, plaintext, aad), blob in zip(items, sealed):
        assert blob == gcm.encrypt(nonce, plaintext, aad)
    opened = gcm.open_blocks(
        [(nonce, blob, aad) for (nonce, _, aad), blob in zip(items, sealed)]
    )
    assert opened == [plaintext for _, plaintext, _ in items]


def test_gcm_batch_open_is_all_or_nothing():
    gcm = AesGcmAead(b"b" * 16)
    nonce_a, nonce_b = (1).to_bytes(12, "big"), (2).to_bytes(12, "big")
    good = gcm.encrypt(nonce_a, b"good block")
    bad = bytearray(gcm.encrypt(nonce_b, b"bad block"))
    bad[-1] ^= 1
    with pytest.raises(AuthenticationError):
        gcm.open_blocks([(nonce_a, good, b""), (nonce_b, bytes(bad), b"")])
