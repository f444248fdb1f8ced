"""Keccak-256 against published Ethereum test vectors."""

import hashlib
import random

import pytest

from repro.crypto.keccak import _MASK64, Keccak256, _keccak_f1600, keccak256
from tests.oracles import looped_keccak_f1600


KNOWN_VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (
        b"testing",
        "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02",
    ),
    (
        b"The quick brown fox jumps over the lazy dog",
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
    ),
]


@pytest.mark.parametrize("message,expected", KNOWN_VECTORS)
def test_known_vectors(message, expected):
    assert keccak256(message).hex() == expected


@pytest.mark.parametrize("message,expected", KNOWN_VECTORS)
def test_known_vectors_through_the_scalar_sponge(message, expected):
    # keccak256() hashes with whichever engine is installed; this is the
    # scalar permutation, whatever the active crypto backend.
    assert Keccak256(message).hexdigest() == expected


def test_straight_line_permutation_equals_the_looped_oracle():
    rng = random.Random(1600)
    states = [[0] * 25, [_MASK64] * 25, [1 << (i % 64) for i in range(25)]] + [
        [rng.getrandbits(64) for _ in range(25)] for _ in range(100)
    ]
    for state in states:
        expected, actual = list(state), list(state)
        looped_keccak_f1600(expected)
        _keccak_f1600(actual)
        assert actual == expected
        # Iterated: an error that needs a particular lane pattern to
        # show has 24 more rounds of diffusion to meet it.
        looped_keccak_f1600(expected)
        _keccak_f1600(actual)
        assert actual == expected


def test_differs_from_nist_sha3():
    # Ethereum uses the pre-NIST padding; the digests must differ.
    assert keccak256(b"abc") != hashlib.sha3_256(b"abc").digest()


def test_digest_is_32_bytes():
    assert len(keccak256(b"x" * 1000)) == 32


def test_incremental_equals_oneshot():
    hasher = Keccak256()
    hasher.update(b"The quick brown fox ")
    hasher.update(b"jumps over the lazy dog")
    assert (
        hasher.digest()
        == keccak256(b"The quick brown fox jumps over the lazy dog")
    )


def test_digest_does_not_consume_state():
    hasher = Keccak256(b"abc")
    first = hasher.digest()
    second = hasher.digest()
    assert first == second


def test_update_after_digest():
    hasher = Keccak256(b"ab")
    hasher.digest()
    hasher.update(b"c")
    assert hasher.digest() == keccak256(b"abc")


def test_block_boundary_sizes():
    # Exercise rate-boundary lengths (136-byte rate).
    for size in (135, 136, 137, 271, 272, 273):
        data = bytes(range(256))[:100] * 4
        data = data[:size]
        assert Keccak256(data).digest() == keccak256(data)


def test_large_input_not_cached_path():
    data = b"q" * 5000
    assert keccak256(data) == Keccak256(data).digest()


def test_avalanche():
    a = keccak256(b"\x00" * 64)
    b = keccak256(b"\x00" * 63 + b"\x01")
    differing_bits = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    assert differing_bits > 80  # ~128 expected for a good hash
