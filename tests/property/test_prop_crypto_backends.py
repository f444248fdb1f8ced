"""Properties of the fast crypto paths: accelerated == reference, always.

Every accelerated path must be an *exact rewrite* of the reference one:
the memoised keccak equals the scalar sponge, every Jacobian scalar
multiplication and table entry equals the textbook affine
double-and-add (``tests/oracles.py``), and the OpenSSL verifier gives
the table-free verify's verdict (including which failures it raises).
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.crypto import ecc
from repro.crypto.backend import _OpensslVerifier
from repro.crypto.ecc import InvalidSignature, PrivateKey, Signature
from repro.crypto.keccak import Keccak256, keccak256
from tests.oracles import affine_add, affine_scalar_mul


@given(st.binary(max_size=600))
def test_every_engine_matches_scalar_sponge(data):
    expected = Keccak256(data).digest()
    assert keccak256(data) == expected
    assert keccak256(data) == expected  # and again, through the memo


# Window seams, the group order's neighbourhood, and the 256-bit ceiling.
_EDGE_SCALARS = [
    1, 2, 15, 16, 17, ecc.N - 2, ecc.N - 1, ecc.N, ecc.N + 1, 2**255, 2**256 - 1,
]
_scalars = st.one_of(
    st.sampled_from(_EDGE_SCALARS), st.integers(min_value=0, max_value=2**256 - 1)
)
_points = st.integers(min_value=1, max_value=ecc.N - 1).map(
    lambda d: affine_scalar_mul(d, ecc.G)
)


@pytest.mark.parametrize("k", _EDGE_SCALARS)
def test_fixed_base_mul_equals_double_and_add_on_edge_scalars(k):
    assert ecc.fixed_base_mul(k) == affine_scalar_mul(k, ecc.G)
    assert ecc._to_affine(ecc._jac_mul(k, ecc.G)) == affine_scalar_mul(k, ecc.G)


@settings(max_examples=15)
@given(_scalars)
def test_fixed_base_mul_equals_double_and_add(k):
    assert ecc.fixed_base_mul(k) == affine_scalar_mul(k, ecc.G)


# The G table reads ``k`` as signed 8-bit digits: a byte above 0x80 turns
# negative and carries 1 upwards.  Each seam byte at every position, a
# run of 0xFF that carries out of the top byte into the 33rd row, and
# the small and order-adjacent scalars.
_CARRY_INTO_ROW_33 = int("ff" * 15 + "00" * 17, 16)
_SIGNED_DIGIT_EDGES = [
    byte << (8 * position)
    for position in range(32)
    for byte in (0x7F, 0x80, 0x81, 0xFF)
] + [
    _CARRY_INTO_ROW_33, 2**248 - 1, int("81" * 32, 16),
    1, 2, ecc.N - 1, ecc.N - 2, 2**255,
]
_edge_bytes = st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0x81, 0xFE, 0xFF])


@pytest.mark.parametrize("k", _SIGNED_DIGIT_EDGES, ids=hex)
def test_fixed_base_mul_equals_double_and_add_on_signed_digit_edges(k):
    assert ecc.fixed_base_mul(k) == affine_scalar_mul(k, ecc.G)


@settings(max_examples=25)
@given(st.lists(_edge_bytes, min_size=32, max_size=32))
def test_fixed_base_mul_equals_double_and_add_on_seam_bytes(scalar_bytes):
    """Every byte a digit seam, so carries chain through whole runs."""
    k = int.from_bytes(bytes(scalar_bytes), "big")
    assert ecc.fixed_base_mul(k) == affine_scalar_mul(k, ecc.G)


@settings(max_examples=15)
@given(_scalars, _points)
def test_scalar_mul_equals_double_and_add(k, point):
    assert ecc._to_affine(ecc._jac_mul(k, point)) == affine_scalar_mul(k, point)


_secrets = st.one_of(
    st.sampled_from([1, ecc.N - 1, 2**255]), st.integers(min_value=1, max_value=ecc.N - 1)
)


@settings(max_examples=15)
@given(_secrets, _secrets)
def test_ecdh_equals_double_and_add(a, b):
    """OpenSSL's ECDH equals the affine oracle, both ways round."""
    key_a, key_b = PrivateKey(a), PrivateKey(b)
    public_a, public_b = key_a.public_key(), key_b.public_key()
    shared = key_a.ecdh(public_b)
    assert shared == affine_scalar_mul(a, public_b.point).x.to_bytes(32, "big")
    assert key_b.ecdh(public_a) == shared


@pytest.mark.parametrize(
    "point",
    [
        ecc.Point(1, 2),
        ecc.Point(ecc.GX, ecc.GY + 1),
        ecc.INFINITY,
        ecc.Point(ecc.GX + ecc.P, ecc.GY),
    ],
    ids=["off-curve", "y+1", "infinity", "x+P"],
)
def test_ecdh_refuses_an_unvalidated_peer_with_value_error(point):
    # The point skips PublicKey.__post_init__, as a hostile caller could.
    peer = object.__new__(ecc.PublicKey)
    object.__setattr__(peer, "point", point)
    with pytest.raises(ValueError) as caught:
        PrivateKey(7).ecdh(peer)
    assert type(caught.value) is ValueError


@settings(max_examples=3)
@given(_points)
def test_every_window_table_entry_equals_double_and_add(point):
    table = ecc._window_table(point)
    assert len(table) == 33
    base = point
    for row in table:
        # row[j - 1] = j * base for j in 1..128, checked by the oracle's
        # own running sum; each entry is a bare (x, y) pair.
        assert len(row) == 128
        expected = ecc.INFINITY
        for entry in row:
            expected = affine_add(expected, base)
            assert type(entry) is tuple and ecc.Point(*entry) == expected
        base = affine_add(expected, expected)  # 256 * base


def _verdict(verify, message_hash, signature):
    """``None`` for an accept, else the exception's type and message."""
    try:
        verify(message_hash, signature)
    except (InvalidSignature, ValueError) as error:
        return type(error), str(error)
    return None


@settings(max_examples=12)
@given(
    secret=st.integers(min_value=1, max_value=ecc.N - 1),
    other=st.integers(min_value=1, max_value=ecc.N - 1),
    digest=st.binary(min_size=32, max_size=32),
    bit=st.integers(min_value=0, max_value=255),
)
def test_the_openssl_verifier_gives_the_table_free_verdict(secret, other, digest, bit):
    """Every signature check runs on OpenSSL's verifier; the oracle is
    the table-free pure-Python verify.  Both accept, or both raise the same
    type — for ``InvalidSignature`` the same out-of-range vs mismatch
    message — on the honest signature, its high-s twin, every scalar
    out of range, a flipped digest bit, the wrong key and a digest of
    the wrong length."""
    # Not the key, nor its negation: on a zero digest u1 = 0, so R = u2*Q
    # and -R share their x, and -Q rightly accepts Q's signature.
    assume(other not in (secret, ecc.N - secret))
    key = PrivateKey(secret)
    public = key.public_key()
    honest = key.sign(digest)
    flipped = bytearray(digest)
    flipped[bit // 8] ^= 1 << (bit % 8)
    cases = [
        (public, digest, honest),
        (public, digest, Signature(honest.r, ecc.N - honest.s)),
        (public, bytes(flipped), honest),
        (PrivateKey(other).public_key(), digest, honest),
        (public, digest[:31], honest),
        (public, digest + b"\x00", honest),
    ]
    for bad in (0, ecc.N, ecc.N + 1, 2**256):
        cases.append((public, digest, Signature(bad, honest.s)))
        cases.append((public, digest, Signature(honest.r, bad)))
    verdicts = [
        (
            _verdict(point.verify, message_hash, signature),
            _verdict(_OpensslVerifier(point).verify, message_hash, signature),
        )
        for point, message_hash, signature in cases
    ]
    for reference, openssl in verdicts:
        assert openssl == reference
    # The two accepts, and a refusal of every other case (a flipped bit
    # or another key can match only by a 2^-256 accident).
    assert [reference for reference, _ in verdicts[:2]] == [None, None]
    assert all(reference is not None for reference, _ in verdicts[2:])
    assert {reference for reference, _ in verdicts[2:]} <= {
        (InvalidSignature, "r mismatch"),
        (InvalidSignature, "signature scalars out of range"),
        (ValueError, "message hash must be 32 bytes"),
    }
