"""Independent reference implementations the suite compares against.

``affine_*`` is the textbook affine secp256k1 group law and
double-and-add — the code ``repro.crypto.ecc`` shipped before it moved
to Jacobian coordinates.  It pays one modular inversion per group
operation and shares nothing with the production law beyond the curve
constants, which is what makes it an oracle: every production result
(scalar multiples, table entries, ECDH secrets, verify verdicts) must
equal what this code computes.
"""

from __future__ import annotations

from repro.crypto.ecc import G, INFINITY, N, P, InvalidSignature, Point, Signature


def affine_add(p: Point, q: Point) -> Point:
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if (p.y + q.y) % P == 0:
            return INFINITY
        slope = (3 * p.x * p.x) * pow(2 * p.y, -1, P) % P
    else:
        slope = (q.y - p.y) * pow(q.x - p.x, -1, P) % P
    x = (slope * slope - p.x - q.x) % P
    return Point(x, (slope * (p.x - x) - p.y) % P)


def affine_scalar_mul(k: int, point: Point) -> Point:
    """Right-to-left double-and-add."""
    k %= N
    result, addend = INFINITY, point
    while k:
        if k & 1:
            result = affine_add(result, addend)
        addend = affine_add(addend, addend)
        k >>= 1
    return result


def affine_verify(point: Point, message_hash: bytes, signature: Signature) -> None:
    """ECDSA verification over the affine law; same verdicts, same messages."""
    r, s = signature.r, signature.s
    if not (1 <= r < N and 1 <= s < N):
        raise InvalidSignature("signature scalars out of range")
    s_inv = pow(s, -1, N)
    u1 = int.from_bytes(message_hash, "big") * s_inv % N
    u2 = r * s_inv % N
    total = affine_add(affine_scalar_mul(u1, G), affine_scalar_mul(u2, point))
    if total.is_infinity:
        raise InvalidSignature("verification produced infinity")
    if total.x % N != r:
        raise InvalidSignature("r mismatch")
