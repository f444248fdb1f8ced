"""RLP encoding and decoding.

RLP serializes nested lists of byte strings; Ethereum uses it for
accounts, transactions, and Merkle Patricia Trie nodes.  ``encode``
accepts ``bytes`` and (recursively) ``list``/``tuple`` of the same;
integers must be converted with :func:`encode_uint` first, mirroring the
spec's big-endian minimal encoding.

The item writers (:func:`encode_string`, :func:`encode_list`) and the
one header reader (:func:`read_header`) are public so a schema's own
codec — the trace report's — writes and reads the same canonical form
as :func:`encode` and :func:`decode` without building a tree.
"""

from __future__ import annotations

RlpItem = bytes | list["RlpItem"]

STRING = 0x80  # prefix offset of a byte string
LIST = 0xC0  # prefix offset of a list


class DecodingError(Exception):
    """Raised for malformed RLP input."""


# Decoding recurses once per list level and the bytes come from outside
# (a session holder's bundle, the Node's proofs), so the depth is bounded
# here, not by the interpreter's recursion limit: 60 KB of nested list
# prefixes would otherwise end in RecursionError, not DecodingError.
# Deepest honest encodings that reach ``decode``, measured over the
# served traffic (e2e smoke, recovery-/receipt-/trace-/chaos-bench,
# evalset, demo): bundle 3, trie node 1 (4 at most: a branch embedding
# an extension embedding a branch of short leaves); the journal does not
# use RLP.  The trace report has its own decoder, whose depth its schema
# fixes at 6 (report, traces, trace, logs, log, topics).
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


# The one-byte prefixes of payloads shorter than 56 bytes, by length.
_SHORT_STRING = tuple(bytes((STRING + length,)) for length in range(56))
_SHORT_LIST = tuple(bytes((LIST + length,)) for length in range(56))


def _encode_length(length: int, offset: int) -> bytes:
    """The prefix of an item whose payload is ``length`` bytes long;
    ``offset`` is :data:`STRING` or :data:`LIST`."""
    if length < 56:
        return bytes([offset + length])
    length_bytes = encode_uint(length)
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


def encode_string(data: bytes) -> bytes:
    """The RLP item of one byte string."""
    length = len(data)
    if length >= 56:
        return _encode_length(length, STRING) + data
    if length == 1 and data[0] < STRING:
        return data
    return _SHORT_STRING[length] + data


def encode_list(payload: bytes) -> bytes:
    """The RLP item of a list whose items' encodings are ``payload``."""
    length = len(payload)
    if length >= 56:
        return _encode_length(length, LIST) + payload
    return _SHORT_LIST[length] + payload


def encode(item: RlpItem) -> bytes:
    """RLP-encode a byte string or a nested list of byte strings."""
    if isinstance(item, (bytes, bytearray)):
        return encode_string(bytes(item))
    if isinstance(item, (list, tuple)):
        return encode_list(b"".join([encode(sub) for sub in item]))
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


def read_header(data: bytes, pos: int, end: int) -> tuple[int, int, bool]:
    """Read the prefix of the item at ``data[pos]``, which must end by
    ``end``; return its payload's start and end and whether it is a list.

    Every canonical-form check RLP has lives here: a single byte below
    0x80 encodes itself, a long length is at least 56 and has no leading
    zero byte, and nothing extends past ``end``.
    """
    if pos >= end:
        raise DecodingError("unexpected end of input")
    prefix = data[pos]
    if prefix < STRING:
        return pos, pos + 1, False
    if prefix < 0xB8:  # short string
        start = pos + 1
        stop = start + prefix - STRING
        if stop > end:
            raise DecodingError("string extends past its end")
        if stop - start == 1 and data[start] < STRING:
            raise DecodingError("single byte below 0x80 must encode itself")
        return start, stop, False
    if LIST <= prefix < 0xF8:  # short list
        start = pos + 1
        stop = start + prefix - LIST
        if stop > end:
            raise DecodingError("list extends past its end")
        return start, stop, True
    # long string or long list: the prefix counts the length's bytes
    is_list = prefix >= 0xF8
    start = pos + 1 + prefix - (0xF7 if is_list else 0xB7)
    if start > end:
        raise DecodingError("length field extends past its end")
    if data[pos + 1] == 0:
        raise DecodingError("non-canonical long length: leading zero")
    stop = start + int.from_bytes(data[pos + 1:start], "big")
    if stop - start < 56:
        raise DecodingError("non-canonical long length: below 56")
    if stop > end:
        raise DecodingError("item extends past its end")
    return start, stop, is_list


def _decode_at(data: bytes, pos: int, end: int, depth: int) -> tuple[RlpItem, int]:
    start, stop, is_list = read_header(data, pos, end)
    if not is_list:
        return data[start:stop], stop
    depth += 1
    if depth > MAX_NESTING_DEPTH:
        raise DecodingError(f"lists nested deeper than {MAX_NESTING_DEPTH}")
    items: list[RlpItem] = []
    while start < stop:
        item, start = _decode_at(data, start, stop, depth)
        items.append(item)
    return items, stop


def decode(data: bytes) -> RlpItem:
    """Decode a single RLP item; rejects trailing bytes."""
    data = bytes(data)
    item, end = _decode_at(data, 0, len(data), 0)
    if end != len(data):
        raise DecodingError("trailing bytes after RLP item")
    return item
