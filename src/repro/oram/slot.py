"""The ORAM slot plaintext: one layout for every sealed bucket slot.

Every slot the ORAM client seals is the same fixed-size body, so the SP
cannot tell slots apart by length::

    kind (1) || key_len (2) || key, zero-padded to 64 || payload, zero-padded to block_size

Dummies carry ``KIND_DUMMY`` and an empty key and payload; what is
sealed around the body (nonce, AAD) is the client's business.
"""

from __future__ import annotations

KIND_DUMMY = 0
KIND_REAL = 1

MAX_KEY_BYTES = 64
_PAYLOAD_AT = 3 + MAX_KEY_BYTES


def encode(kind: int, key: bytes, payload: bytes, block_size: int) -> bytes:
    if len(key) > MAX_KEY_BYTES:
        raise ValueError("block key too long")
    return (
        bytes((kind,))
        + len(key).to_bytes(2, "big")
        + key.ljust(MAX_KEY_BYTES, b"\x00")
        + payload.ljust(block_size, b"\x00")
    )


def decode(plain: bytes, block_size: int) -> tuple[int, bytes, bytes]:
    """``(kind, key, payload)`` of one opened slot body."""
    key_length = int.from_bytes(plain[1:3], "big")
    return (
        plain[0],
        plain[3:3 + key_length],
        plain[_PAYLOAD_AT:_PAYLOAD_AT + block_size],
    )
