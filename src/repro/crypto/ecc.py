"""secp256k1 elliptic-curve primitives: ECDSA and ECDH.

HarDTAPE uses ECDSA for attestation reports and per-session message
signatures, and Diffie-Hellman key exchange to derive the AES session key
(paper §IV-A).  Ethereum itself signs transactions with ECDSA over
secp256k1, so one curve serves both roles.

Signatures here are deterministic (RFC 6979 style, using HMAC-SHA256) so
that simulation runs are reproducible.

All pure-Python point arithmetic goes through one Jacobian group law
(below); affine :class:`Point` values exist only at the module boundary —
keys and wire encodings; table entries are bare ``(x, y)`` pairs — and
each result crossing it costs exactly one field inversion.  ``k * G``
always reads the global fixed-base G table, and a private key computes
its public point once.

ECDH is served by OpenSSL through ``cryptography`` (the rule the AEAD
follows: OpenSSL serves, pure Python checks); the curve check on the peer
stays here, and the Jacobian law is the oracle the tests hold it to.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric import ec as _ec

# secp256k1 domain parameters.
P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


class InvalidSignature(Exception):
    """Raised when an ECDSA signature fails verification."""


class EccDecodingError(ValueError):
    """Bytes that are not the SEC1 point or 64-byte signature they claim
    to be.  A ``ValueError``, so ``ecrecover`` and every caller that
    already treats malformed key material as a failed check keep doing so."""


@dataclass(frozen=True)
class Point:
    """An affine point on secp256k1; ``None`` coordinates encode infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point(None, None)
G = Point(GX, GY)


# ---------------------------------------------------------------------------
# The group law: one Jacobian implementation for every caller.
#
# A Jacobian triple (X, Y, Z) stands for the affine point (X/Z^2, Y/Z^3);
# Z == 0 is the point at infinity.  Additions and doublings are pure
# multiplications mod P — the ~27 us modular inversion an affine law pays
# per operation is paid once, by :func:`_to_affine` (or once per table, by
# :func:`_batch_to_affine`), when a result leaves the module.  The math is
# exact: every path returns the same affine points the textbook affine
# double-and-add does (``tests/oracles.py`` keeps that code as the oracle),
# so nonces, signatures, public keys, ECDH secrets and accept/reject
# decisions are bit-for-bit unchanged.
# ---------------------------------------------------------------------------

_Jacobian = tuple[int, int, int]
_JAC_INFINITY: _Jacobian = (1, 1, 0)


def _jac_double(p: _Jacobian) -> _Jacobian:
    """``2 * p`` on y^2 = x^3 + 7 (a = 0); infinity doubles to infinity."""
    x1, y1, z1 = p
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = b * b % P
    t = x1 + b
    d = 2 * (t * t - a - c) % P
    e = 3 * a
    x3 = (e * e - 2 * d) % P
    # Z3 = 2*Y1*Z1 is zero exactly when p is infinity (the curve has no
    # point with y = 0), so the Z == 0 encoding propagates by itself.
    return x3, (e * (d - x3) - 8 * c) % P, 2 * y1 * z1 % P


def _jac_add_affine(p: _Jacobian, x2: int, y2: int) -> _Jacobian:
    """Mixed addition ``p + (x2, y2)`` for a finite affine point (a table entry)."""
    x1, y1, z1 = p
    if not z1:
        return x2, y2, 1
    z1z1 = z1 * z1 % P
    h = (x2 * z1z1 - x1) % P
    r = (y2 * z1 * z1z1 - y1) % P
    if not h:
        # Same x: the operands are equal (double) or opposite (infinity).
        return _jac_double(p) if not r else _JAC_INFINITY
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    return x3, (r * (v - x3) - y1 * hhh) % P, z1 * h % P


def _jac_add(p: _Jacobian, q: _Jacobian) -> _Jacobian:
    """Full Jacobian addition ``p + q``."""
    x1, y1, z1 = p
    x2, y2, z2 = q
    if not z1:
        return q
    if not z2:
        return p
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    s1 = y1 * z2 * z2z2 % P
    h = (x2 * z1z1 - u1) % P
    r = (y2 * z1 * z1z1 - s1) % P
    if not h:
        return _jac_double(p) if not r else _JAC_INFINITY
    hh = h * h % P
    hhh = h * hh % P
    v = u1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    return x3, (r * (v - x3) - s1 * hhh) % P, z1 * z2 * h % P


def _to_affine(p: _Jacobian) -> Point:
    """Leave Jacobian coordinates: the one field inversion of a result."""
    x, y, z = p
    if not z:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return Point(x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _batch_to_affine(points: list[_Jacobian]) -> list[tuple[int, int]]:
    """Normalise many finite points to ``(x, y)`` pairs with one
    inversion (Montgomery's trick).  Consumes ``points``: each triple is
    dropped as its pair is made, so the two lists never peak together."""
    prefix: list[int] = []
    product = 1
    for _x, _y, z in points:
        prefix.append(product)
        product = product * z % P
    inverse = pow(product, -1, P)
    out: list[tuple[int, int]] = []
    while points:
        x, y, z = points.pop()
        z_inv = inverse * prefix.pop() % P
        inverse = inverse * z % P
        z_inv2 = z_inv * z_inv % P
        out.append((x * z_inv2 % P, y * z_inv2 * z_inv % P))
    out.reverse()
    return out


_WINDOW_BITS = 4  # the variable-base walk's window


def _small_multiples(base: _Jacobian) -> list[_Jacobian]:
    """``[0, 1, .. 15] * base``: evens by doubling, odds by one addition."""
    row = [_JAC_INFINITY, base]
    for j in range(2, 1 << _WINDOW_BITS):
        row.append(_jac_add(row[j - 1], base) if j & 1 else _jac_double(row[j >> 1]))
    return row


def _jac_mul(k: int, point: Point) -> _Jacobian:
    """``k * point``, left-to-right 4-bit window, no inversion."""
    k %= N
    x, y = point.x, point.y
    if not k or x is None or y is None:
        return _JAC_INFINITY
    multiples = _small_multiples((x, y, 1))
    top = (k.bit_length() - 1) // _WINDOW_BITS * _WINDOW_BITS
    acc = multiples[k >> top]  # the leading nibble, never zero
    for shift in range(top - _WINDOW_BITS, -1, -_WINDOW_BITS):
        acc = _jac_double(_jac_double(_jac_double(_jac_double(acc))))
        nibble = (k >> shift) & 0xF
        if nibble:
            acc = _jac_add(acc, multiples[nibble])
    return acc


# ---------------------------------------------------------------------------
# Fixed-base tables.
#
# ``k * Q`` from a table needs no doublings.  ``k`` is read as 33 signed
# 8-bit digits, each in -127..128: a byte above 128 becomes byte - 256
# and carries 1 into the next byte, and the carry out of the top byte is
# the 33rd digit.  table[i][j - 1] = (j << 8i) * Q for i in 0..32 and j
# in 1..128, so ``k * Q`` is the sum of at most 33 entries, a negative
# digit adding the entry with y negated.  Entries are bare affine
# ``(x, y)`` pairs, not ``Point`` objects (less memory per entry), so
# every lookup is a mixed addition; they are built in Jacobian
# coordinates and normalised with one batch inversion.  The G table is
# global (built once per process, about 30 ms) and serves signing, key
# generation and the ``u1 * G`` half of every pure-Python verify;
# ``u2 * Q`` is a window walk per verify, and nothing but
# :class:`PrecomputedVerifier` builds a per-key table.
# ---------------------------------------------------------------------------

_TABLE_ROWS = 33  # one per byte of a scalar, plus the carry out of the top one
_TABLE_WIDTH = 128  # digits 1..128; -127..-1 by negation

_Table = list[list[tuple[int, int]]]


def _window_table(point: Point) -> _Table:
    """Precompute ``table[i][j - 1] = (j << 8i) * point``, j in 1..128."""
    x, y = point.x, point.y
    if x is None or y is None:
        raise ValueError("cannot build a window table for infinity")
    entries: list[_Jacobian] = []
    base: _Jacobian = (x, y, 1)
    for _ in range(_TABLE_ROWS):
        # row[j - 1] = j * base: evens by doubling, odds by one addition.
        row = [base]
        for j in range(2, _TABLE_WIDTH + 1):
            row.append(_jac_add(row[-1], base) if j & 1 else _jac_double(row[j // 2 - 1]))
        entries.extend(row)
        # Shift the base by one digit: 256 * base = 2 * (128 * base).
        base = _jac_double(row[-1])
    affine = _batch_to_affine(entries)
    return [
        affine[start:start + _TABLE_WIDTH]
        for start in range(0, len(affine), _TABLE_WIDTH)
    ]


def _windowed_mul(table: _Table, k: int, acc: _Jacobian = _JAC_INFINITY) -> _Jacobian:
    """``acc + k * Q`` from Q's fixed-base table (mixed additions only)."""
    k %= N
    for row in table:
        if not k:
            break
        digit = k & 0xFF
        k >>= 8
        if digit > _TABLE_WIDTH:
            # The digit is byte - 256: add the entry for 256 - byte with
            # y negated, and carry 1 into the next byte.
            k += 1
            x, y = row[255 - digit]
            acc = _jac_add_affine(acc, x, P - y)
        elif digit:
            x, y = row[digit - 1]
            acc = _jac_add_affine(acc, x, y)
    return acc


_G_TABLE: _Table | None = None


def _g_table() -> _Table:
    global _G_TABLE
    if _G_TABLE is None:
        _G_TABLE = _window_table(G)
    return _G_TABLE


def fixed_base_mul(k: int) -> Point:
    """``k * G`` via the global fixed-base table."""
    return _to_affine(_windowed_mul(_g_table(), k))


def point_on_curve(point: Point) -> bool:
    """Check ``point`` is infinity or a canonical solution of y^2 = x^3 + 7.

    Canonical means ``0 <= x, y < p``: an unreduced coordinate would
    satisfy the equation mod p too, giving one key two wire encodings and
    two identities, and would break the group law's ``x1 == x2`` tests.
    """
    x, y = point.x, point.y
    if x is None or y is None:
        return x is None and y is None
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - x * x * x - 7) % P == 0


def encode_point(point: Point) -> bytes:
    """Serialize a point as uncompressed SEC1 (65 bytes)."""
    x, y = point.x, point.y
    if x is None or y is None:
        raise ValueError("cannot encode the point at infinity")
    return b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")


def decode_point(data: bytes) -> Point:
    """Parse an uncompressed SEC1 point and validate curve membership."""
    if len(data) != 65 or data[0] != 0x04:
        raise EccDecodingError("expected 65-byte uncompressed SEC1 point")
    point = Point(
        int.from_bytes(data[1:33], "big"), int.from_bytes(data[33:], "big")
    )
    if not point_on_curve(point):
        raise EccDecodingError("point is not on secp256k1")
    return point


_SECP256K1 = _ec.SECP256K1()
_ECDH = _ec.ECDH()


def _openssl_numbers(point: Point) -> _ec.EllipticCurvePublicNumbers:
    return _ec.EllipticCurvePublicNumbers(point.x, point.y, _SECP256K1)


@dataclass(frozen=True)
class PrivateKey:
    """A secp256k1 private key with deterministic-ECDSA signing."""

    secret: int
    # ``secret * G``, set by the first :meth:`public_key` call.
    _public: PublicKey | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 1 <= self.secret < N:
            raise ValueError("private key out of range")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrivateKey":
        value = int.from_bytes(data, "big") % (N - 1) + 1
        return cls(value)

    def public_key(self) -> "PublicKey":
        """``secret * G``: one fixed-base multiplication per key, ever."""
        public = self._public
        if public is None:
            public = PublicKey(fixed_base_mul(self.secret))
            object.__setattr__(self, "_public", public)
        return public

    def _rfc6979_nonce(self, digest: bytes) -> int:
        """Deterministic per-message nonce (RFC 6979, HMAC-SHA256)."""
        key_bytes = self.secret.to_bytes(32, "big")
        v = b"\x01" * 32
        k = b"\x00" * 32
        k = hmac.new(k, v + b"\x00" + key_bytes + digest, hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()
        k = hmac.new(k, v + b"\x01" + key_bytes + digest, hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()
        while True:
            v = hmac.new(k, v, hashlib.sha256).digest()
            candidate = int.from_bytes(v, "big")
            if 1 <= candidate < N:
                return candidate
            k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
            v = hmac.new(k, v, hashlib.sha256).digest()

    def sign(self, message_hash: bytes) -> "Signature":
        """Sign a 32-byte message hash; returns a low-s signature."""
        if len(message_hash) != 32:
            raise ValueError("message hash must be 32 bytes")
        z = int.from_bytes(message_hash, "big")
        while True:
            k = self._rfc6979_nonce(message_hash)
            x = fixed_base_mul(k).x
            r = 0 if x is None else x % N
            if r == 0:
                message_hash = hashlib.sha256(message_hash).digest()
                continue
            s = (z + r * self.secret) * pow(k, -1, N) % N
            if s == 0:
                message_hash = hashlib.sha256(message_hash).digest()
                continue
            if s > N // 2:
                s = N - s
            return Signature(r, s)

    def ecdh(self, peer: "PublicKey") -> bytes:
        """Raw ECDH shared secret (x-coordinate, 32 bytes), in OpenSSL.

        The peer is checked here first, so a point that bypassed
        :class:`PublicKey` validation is refused with ``ValueError``
        before OpenSSL sees it.  The OpenSSL key is built from the
        memoised public numbers, which skips its own ``secret * G``.
        """
        if peer.point.is_infinity or not point_on_curve(peer.point):
            raise ValueError("invalid ECDH peer key")
        own = _ec.EllipticCurvePrivateNumbers(
            self.secret, _openssl_numbers(self.public_key().point)
        ).private_key()
        return own.exchange(_ECDH, _openssl_numbers(peer.point).public_key())


@dataclass(frozen=True)
class PublicKey:
    """A secp256k1 public key."""

    point: Point

    def __post_init__(self) -> None:
        if self.point.is_infinity or not point_on_curve(self.point):
            raise ValueError("invalid public key")

    def to_bytes(self) -> bytes:
        return encode_point(self.point)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        return cls(decode_point(data))

    def verify(self, message_hash: bytes, signature: "Signature") -> None:
        """Verify; raises :class:`InvalidSignature` on failure."""
        u1, u2 = _verification_scalars(message_hash, signature)
        _check_r(_windowed_mul(_g_table(), u1, _jac_mul(u2, self.point)), signature.r)


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature as the (r, s) scalar pair."""

    r: int
    s: int

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 64:
            raise EccDecodingError("signature must be 64 bytes")
        return cls(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))


def _verification_scalars(message_hash: bytes, signature: Signature) -> tuple[int, int]:
    """Range-check one ``(digest, signature)`` pair; return ``(u1, u2)``."""
    if len(message_hash) != 32:
        raise ValueError("message hash must be 32 bytes")
    r, s = signature.r, signature.s
    if not (1 <= r < N and 1 <= s < N):
        raise InvalidSignature("signature scalars out of range")
    s_inv = pow(s, -1, N)
    return int.from_bytes(message_hash, "big") * s_inv % N, r * s_inv % N


def _check_r(point: _Jacobian, r: int) -> None:
    """Accept iff ``point = u1*G + u2*Q`` is finite with ``x mod N == r``."""
    x = _to_affine(point).x
    if x is None:
        raise InvalidSignature("verification produced infinity")
    if x % N != r:
        raise InvalidSignature("r mismatch")


class PrecomputedVerifier:
    """ECDSA verification against one public key, tables built once.

    Nothing builds one any more; it stays because the e2e ledger's
    traced repetition patches its ``verify`` and ``verify_many`` by name.
    Accept/reject behaviour — including the exceptions raised — matches
    :meth:`PublicKey.verify` exactly; only the scalar-multiplication
    strategy for ``u2 * Q`` differs (at most 33 table lookups instead of
    a 256-doubling window walk), under the same group law.
    """

    def __init__(self, public_key: PublicKey) -> None:
        self.public_key = public_key
        self._key_table = _window_table(public_key.point)

    def verify(self, message_hash: bytes, signature: Signature) -> None:
        """Verify; raises :class:`InvalidSignature` on failure."""
        u1, u2 = _verification_scalars(message_hash, signature)
        _check_r(
            _windowed_mul(self._key_table, u2, _windowed_mul(_g_table(), u1)),
            signature.r,
        )

    def verify_many(
        self, items: list[tuple[bytes, Signature]]
    ) -> None:
        """Verify every ``(message_hash, signature)`` pair; raise on the first bad one."""
        for message_hash, signature in items:
            self.verify(message_hash, signature)


def recover_address(message_hash: bytes, signature: Signature, public_key: PublicKey) -> bytes:
    """Return the 20-byte Ethereum address of ``public_key``.

    (Full public-key recovery from (r, s, v) is not needed by the
    simulation; transactions carry sender addresses explicitly.)
    """
    from repro.crypto.keccak import keccak256

    public_key.verify(message_hash, signature)
    encoded = public_key.to_bytes()[1:]
    return keccak256(encoded)[12:]
