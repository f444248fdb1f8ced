"""RLP encoding and decoding.

RLP serializes nested lists of byte strings; Ethereum uses it for
accounts, transactions, and Merkle Patricia Trie nodes.  ``encode``
accepts ``bytes`` and (recursively) ``list``/``tuple`` of the same;
integers must be converted with :func:`encode_uint` first, mirroring the
spec's big-endian minimal encoding.
"""

from __future__ import annotations

RlpItem = bytes | list["RlpItem"]


class DecodingError(Exception):
    """Raised for malformed RLP input."""


# Decoding recurses once per list level and the bytes come from outside
# (a session holder's bundle, the Node's proofs), so the depth is bounded
# here, not by the interpreter's recursion limit: 60 KB of nested list
# prefixes would otherwise end in RecursionError, not DecodingError.
# Deepest honest encodings, measured over the served traffic (e2e smoke,
# recovery-/receipt-/trace-/chaos-bench, evalset, demo): trace report 6,
# bundle 3, trie node 1 (4 at most: a branch embedding an extension
# embedding a branch of short leaves); the journal does not use RLP.
MAX_NESTING_DEPTH = 32


def encode_uint(value: int) -> bytes:
    """Encode a non-negative integer as the minimal big-endian bytes.

    Zero encodes to the empty string per the Ethereum convention.
    """
    if value < 0:
        raise ValueError("RLP integers must be non-negative")
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def decode_uint(data: bytes) -> int:
    """Inverse of :func:`encode_uint`; rejects non-minimal encodings."""
    if data[:1] == b"\x00":
        raise DecodingError("non-minimal integer encoding")
    return int.from_bytes(data, "big")


def _encode_length(length: int, offset: int) -> bytes:
    if length < 56:
        return bytes([offset + length])
    length_bytes = encode_uint(length)
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


def encode(item: RlpItem) -> bytes:
    """RLP-encode a byte string or a nested list of byte strings."""
    if isinstance(item, (bytes, bytearray)):
        data = bytes(item)
        if len(data) == 1 and data[0] < 0x80:
            return data
        return _encode_length(len(data), 0x80) + data
    if isinstance(item, (list, tuple)):
        payload = b"".join(encode(sub) for sub in item)
        return _encode_length(len(payload), 0xC0) + payload
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


def _decode_at(data: bytes, pos: int, depth: int) -> tuple[RlpItem, int]:
    if pos >= len(data):
        raise DecodingError("unexpected end of input")
    prefix = data[pos]
    if prefix < 0x80:
        return bytes([prefix]), pos + 1
    if prefix < 0xB8:  # short string
        length = prefix - 0x80
        end = pos + 1 + length
        if end > len(data):
            raise DecodingError("string extends past end of input")
        payload = data[pos + 1:end]
        if length == 1 and payload[0] < 0x80:
            raise DecodingError("single byte below 0x80 must encode itself")
        return payload, end
    if prefix < 0xC0:  # long string
        length_size = prefix - 0xB7
        length_end = pos + 1 + length_size
        if length_end > len(data):
            raise DecodingError("length field extends past end of input")
        length = int.from_bytes(data[pos + 1:length_end], "big")
        if length < 56 or data[pos + 1] == 0:
            raise DecodingError("non-canonical long-string length")
        end = length_end + length
        if end > len(data):
            raise DecodingError("string extends past end of input")
        return data[length_end:end], end
    if prefix < 0xF8:  # short list
        length = prefix - 0xC0
        end = pos + 1 + length
        if end > len(data):
            raise DecodingError("list extends past end of input")
        return _decode_list(data, pos + 1, end, depth + 1), end
    # long list
    length_size = prefix - 0xF7
    length_end = pos + 1 + length_size
    if length_end > len(data):
        raise DecodingError("length field extends past end of input")
    length = int.from_bytes(data[pos + 1:length_end], "big")
    if length < 56 or data[pos + 1] == 0:
        raise DecodingError("non-canonical long-list length")
    end = length_end + length
    if end > len(data):
        raise DecodingError("list extends past end of input")
    return _decode_list(data, length_end, end, depth + 1), end


def _decode_list(data: bytes, start: int, end: int, depth: int) -> list[RlpItem]:
    if depth > MAX_NESTING_DEPTH:
        raise DecodingError(f"lists nested deeper than {MAX_NESTING_DEPTH}")
    items: list[RlpItem] = []
    pos = start
    while pos < end:
        item, pos = _decode_at(data, pos, depth)
        items.append(item)
    if pos != end:
        raise DecodingError("list payload length mismatch")
    return items


def decode(data: bytes) -> RlpItem:
    """Decode a single RLP item; rejects trailing bytes."""
    item, end = _decode_at(bytes(data), 0, 0)
    if end != len(data):
        raise DecodingError("trailing bytes after RLP item")
    return item
