"""secp256k1 ECDSA / ECDH."""

import hashlib

import pytest

from repro.crypto import ecc
from repro.crypto.backend import _OpensslVerifier
from repro.crypto.ecc import (
    G,
    INFINITY,
    InvalidSignature,
    N,
    P,
    Point,
    PrecomputedVerifier,
    PrivateKey,
    PublicKey,
    Signature,
    _jac_add,
    _jac_add_affine,
    _jac_double,
    _jac_mul,
    _to_affine,
    decode_point,
    encode_point,
    point_on_curve,
    recover_address,
)
from tests.oracles import affine_add, affine_scalar_mul, affine_verify


def _digest(message: bytes) -> bytes:
    return hashlib.sha256(message).digest()


def test_generator_on_curve():
    assert point_on_curve(G)


def test_scalar_mul_matches_known_point():
    # 2*G for secp256k1 is a published constant.
    double = _to_affine(_jac_mul(2, G))
    assert double.x == int(
        "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5", 16
    )
    assert double.y == int(
        "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a", 16
    )


def test_order_times_generator_is_infinity():
    assert _to_affine(_jac_mul(N, G)).is_infinity


def _jac(point: Point, z: int = 1):
    """``point`` as a Jacobian triple with the given (non-trivial) Z."""
    if point.is_infinity:
        return (1, 1, 0)
    return (point.x * z * z % P, point.y * z**3 % P, z)


def test_point_add_inverse_is_infinity():
    p = _to_affine(_jac_mul(7, G))
    neg = Point(p.x, (-p.y) % P)
    assert _to_affine(_jac_add(_jac(p, 5), _jac(neg, 9))).is_infinity
    assert _to_affine(_jac_add_affine(_jac(p, 5), neg.x, neg.y)).is_infinity


def test_group_law_matches_affine_oracle_on_every_branch():
    # Generic, P + P, P + (-P), and infinity on either side, for the
    # doubling, the mixed and the full addition alike (the mixed one
    # takes a table entry's coordinates, never infinity).
    a, b = affine_scalar_mul(7, G), affine_scalar_mul(11, G)
    neg_a = Point(a.x, (-a.y) % P)
    for p, q in [
        (a, b), (a, a), (a, neg_a), (INFINITY, a), (a, INFINITY), (INFINITY, INFINITY),
    ]:
        expected = affine_add(p, q)
        assert _to_affine(_jac_add(_jac(p, 3), _jac(q, 4))) == expected
        if not q.is_infinity:
            assert _to_affine(_jac_add_affine(_jac(p, 3), q.x, q.y)) == expected
    assert _to_affine(_jac_double(_jac(a, 6))) == affine_add(a, a)
    assert _to_affine(_jac_double(_jac(INFINITY))).is_infinity


def test_sign_verify_roundtrip():
    sk = PrivateKey.from_bytes(b"\x42" * 32)
    pk = sk.public_key()
    digest = _digest(b"hello hardtape")
    pk.verify(digest, sk.sign(digest))


def test_signature_is_deterministic():
    sk = PrivateKey.from_bytes(b"\x42" * 32)
    digest = _digest(b"msg")
    assert sk.sign(digest) == sk.sign(digest)


def test_signature_is_low_s():
    sk = PrivateKey.from_bytes(b"\x13" * 32)
    for i in range(8):
        sig = sk.sign(_digest(bytes([i])))
        assert sig.s <= N // 2


def test_wrong_message_rejected():
    sk = PrivateKey.from_bytes(b"\x42" * 32)
    sig = sk.sign(_digest(b"original"))
    with pytest.raises(InvalidSignature):
        sk.public_key().verify(_digest(b"forged"), sig)


def test_wrong_key_rejected():
    sk1 = PrivateKey.from_bytes(b"\x01" * 32)
    sk2 = PrivateKey.from_bytes(b"\x02" * 32)
    digest = _digest(b"msg")
    with pytest.raises(InvalidSignature):
        sk2.public_key().verify(digest, sk1.sign(digest))


def test_out_of_range_scalars_rejected():
    sk = PrivateKey.from_bytes(b"\x42" * 32)
    digest = _digest(b"msg")
    with pytest.raises(InvalidSignature):
        sk.public_key().verify(digest, Signature(0, 1))
    with pytest.raises(InvalidSignature):
        sk.public_key().verify(digest, Signature(1, N))


def test_signature_serialization_roundtrip():
    sk = PrivateKey.from_bytes(b"\x42" * 32)
    sig = sk.sign(_digest(b"msg"))
    assert Signature.from_bytes(sig.to_bytes()) == sig
    with pytest.raises(ValueError):
        Signature.from_bytes(b"\x00" * 63)


def test_point_encoding_roundtrip():
    pk = PrivateKey.from_bytes(b"\x07" * 32).public_key()
    assert decode_point(encode_point(pk.point)) == pk.point


def test_decode_rejects_off_curve_point():
    bogus = b"\x04" + b"\x01" * 64
    with pytest.raises(ValueError):
        decode_point(bogus)


# Curve points with one coordinate small enough that coordinate + P still
# fits the 32-byte SEC1 field.
_SMALL_X = Point(1, 0x4218F20AE6C646B363DB68605822FB14264CA8D2587FDD6FBC750D587E76A7EE)
_SMALL_Y = Point(0x1FE1E5EF3FCEB5C135AB7741333CE5A6E80D68167653F6B2B24BCBCFAAAFF507, 1)


@pytest.mark.parametrize(
    "point",
    [
        Point(_SMALL_X.x + P, _SMALL_X.y),
        Point(_SMALL_Y.x, _SMALL_Y.y + P),
        Point(_SMALL_X.x, _SMALL_X.y - P),
    ],
    ids=["x+P", "y+P", "y-P"],
)
def test_non_canonical_coordinates_rejected(point):
    # Congruent mod P to a real curve point, so the curve equation holds;
    # accepting it would give one key two encodings and two identities.
    assert point_on_curve(_SMALL_X) and point_on_curve(_SMALL_Y)
    assert not point_on_curve(point)
    with pytest.raises(ValueError):
        PublicKey(point)
    if point.y >= 0:
        wire = b"\x04" + point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")
        with pytest.raises(ValueError):
            decode_point(wire)
        with pytest.raises(ValueError):
            PublicKey.from_bytes(wire)


def test_ecdh_is_symmetric():
    a = PrivateKey.from_bytes(b"\x0a" * 32)
    b = PrivateKey.from_bytes(b"\x0b" * 32)
    assert a.ecdh(b.public_key()) == b.ecdh(a.public_key())


def test_ecdh_distinct_peers_distinct_secrets():
    a = PrivateKey.from_bytes(b"\x0a" * 32)
    b = PrivateKey.from_bytes(b"\x0b" * 32)
    c = PrivateKey.from_bytes(b"\x0c" * 32)
    assert a.ecdh(b.public_key()) != a.ecdh(c.public_key())


def test_private_key_range_enforced():
    with pytest.raises(ValueError):
        PrivateKey(0)
    with pytest.raises(ValueError):
        PrivateKey(N)


def test_recover_address_is_20_bytes():
    sk = PrivateKey.from_bytes(b"\x42" * 32)
    digest = _digest(b"tx")
    address = recover_address(digest, sk.sign(digest), sk.public_key())
    assert len(address) == 20


# -- known answers and crafted edge cases -------------------------------------

# The widely published secp256k1 RFC 6979 vectors (SHA-256 of the message).
_RFC6979_VECTORS = [
    (
        1,
        b"Satoshi Nakamoto",
        "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
        "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5",
    ),
    (
        1,
        b"All those moments will be lost in time, like tears in rain. Time to die...",
        "8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b"
        "547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc21",
    ),
    (
        N - 1,
        b"Satoshi Nakamoto",
        "fd567d121db66e382991534ada77a6bd3106f0a1098c231e47993447cd6af2d0"
        "6b39cd0eb1bc8603e159ef5c20a5c8ad685a45b06ce9bebed3f153d10d93bed5",
    ),
]


@pytest.mark.parametrize("secret, message, expected", _RFC6979_VECTORS)
def test_rfc6979_known_answers(secret, message, expected):
    key = PrivateKey(secret)
    signature = key.sign(_digest(message))
    assert signature.to_bytes().hex() == expected
    key.public_key().verify(_digest(message), signature)


def test_rfc6979_nonce_known_answer():
    nonce = PrivateKey(1)._rfc6979_nonce(_digest(b"Satoshi Nakamoto"))
    assert nonce == 0x8F8A276C19F4149656B280621E358CCE24F5F52542772691EE69063B74F15D15


def _verdict(verify) -> str:
    try:
        verify()
    except InvalidSignature as exc:
        return str(exc)
    return "accepted"


def _all_verdicts(public: PublicKey, digest: bytes, signature: Signature) -> list[str]:
    """Every production verifier's verdict (typed errors only, or it raises)."""
    return [
        _verdict(lambda: public.verify(digest, signature)),
        _verdict(lambda: PrecomputedVerifier(public).verify(digest, signature)),
        _verdict(lambda: _OpensslVerifier(public).verify(digest, signature)),
    ]


def test_verify_when_both_halves_are_the_same_point():
    # z = r*d makes u1*G == u2*Q, so u1*G + u2*Q is a doubling.  Picking
    # r = x(t*G) and s = 2*r*d/t makes that doubling land on t*G: a
    # signature that is *valid* only if the P + P branch is right.
    d, t = 0xD00D, 0x7E57
    public = PrivateKey(d).public_key()
    r = affine_scalar_mul(t, G).x % N
    z = r * d % N
    signature = Signature(r, 2 * r * d * pow(t, -1, N) % N)
    digest = z.to_bytes(32, "big")
    affine_verify(public.point, digest, signature)  # the oracle accepts
    assert set(_all_verdicts(public, digest, signature)) == {"accepted"}
    # Any other s keeps u1*G == u2*Q but misses r: a clean mismatch.
    off = Signature(r, 3)
    assert _verdict(lambda: affine_verify(public.point, digest, off)) == "r mismatch"
    assert set(_all_verdicts(public, digest, off)) == {"r mismatch"}


def test_verify_when_the_halves_cancel_to_infinity():
    # z = -r*d makes u1*G == -(u2*Q): the sum is the point at infinity.
    d = 0xD00D
    public = PrivateKey(d).public_key()
    r, s = 0x1234567, 0x89ABCDE
    digest = (-r * d % N).to_bytes(32, "big")
    signature = Signature(r, s)
    expected = "verification produced infinity"
    assert _verdict(lambda: affine_verify(public.point, digest, signature)) == expected
    verdicts = _all_verdicts(public, digest, signature)
    # Pure-Python verifiers name the cause; OpenSSL only says "no".
    assert verdicts[:2] == [expected, expected]
    assert "accepted" not in verdicts


# -- the inversion budget (a count, so it survives noisy runners) ------------


@pytest.mark.perf
def test_modular_inversions_per_operation(monkeypatch):
    key = PrivateKey.from_bytes(b"\x42" * 32)
    public = key.public_key()
    digest = _digest(b"budget")
    signature = key.sign(digest)
    verifier = PrecomputedVerifier(public)
    ecc.fixed_base_mul(1)  # the G table is built once per process

    inversions = []

    def counting_pow(base, exponent, modulus=None):
        if exponent == -1:
            inversions.append(modulus)
        return pow(base, exponent, modulus)

    def count(operation) -> list[int]:
        inversions.clear()
        operation()
        return sorted(inversions)

    monkeypatch.setattr(ecc, "pow", counting_pow, raising=False)
    assert count(lambda: key.sign(digest)) == [N, P]  # one scalar, one field
    assert count(lambda: public.verify(digest, signature)) == [N, P]
    assert count(lambda: verifier.verify(digest, signature)) == [N, P]
    assert count(lambda: key.ecdh(public)) == []  # OpenSSL does the curve work
    fresh = PrivateKey.from_bytes(b"\x43" * 32)
    assert count(fresh.public_key) == [P]  # secret * G, once ...
    assert count(fresh.public_key) == []  # ... and then read off the key
    assert count(lambda: ecc._window_table(public.point)) == [P]
