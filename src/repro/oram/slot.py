"""The ORAM bucket plaintext: Z fixed-size slot bodies, sealed as one.

Every slot is the same fixed-size body, so the SP cannot tell slots
apart by length::

    kind (1) || key_len (2) || key, zero-padded to 64 || payload, zero-padded to block_size

Dummies carry ``KIND_DUMMY`` and an empty key and payload.  A bucket's
plaintext is its Z bodies back to back, and the client seals it as one
AES-GCM message, so what the SP stores per bucket is one ciphertext of
:func:`bucket_bytes` bytes::

    nonce (12) || AES-GCM( body_1 || ... || body_Z ) || tag (16)

The nonce and the ``node || version`` AAD are the client's business.
"""

from __future__ import annotations

KIND_DUMMY = 0
KIND_REAL = 1

MAX_KEY_BYTES = 64
_PAYLOAD_AT = 3 + MAX_KEY_BYTES
NONCE_BYTES = 12
TAG_BYTES = 16


def body_bytes(block_size: int) -> int:
    """The length of one slot body."""
    return _PAYLOAD_AT + block_size


def bucket_bytes(bucket_size: int, block_size: int) -> int:
    """The length of one sealed bucket on the wire."""
    return NONCE_BYTES + bucket_size * body_bytes(block_size) + TAG_BYTES


def encode(kind: int, key: bytes, payload: bytes, block_size: int) -> bytes:
    if len(key) > MAX_KEY_BYTES:
        raise ValueError("block key too long")
    return (
        bytes((kind,))
        + len(key).to_bytes(2, "big")
        + key.ljust(MAX_KEY_BYTES, b"\x00")
        + payload.ljust(block_size, b"\x00")
    )


def split(plain: bytes, block_size: int) -> tuple[bytes, ...]:
    """The slot bodies of one opened bucket plaintext, in order."""
    size = body_bytes(block_size)
    return tuple(plain[at:at + size] for at in range(0, len(plain), size))


def decode(plain: bytes, block_size: int) -> tuple[int, bytes, bytes]:
    """``(kind, key, payload)`` of one slot body."""
    key_length = int.from_bytes(plain[1:3], "big")
    return (
        plain[0],
        plain[3:3 + key_length],
        plain[_PAYLOAD_AT:_PAYLOAD_AT + block_size],
    )
