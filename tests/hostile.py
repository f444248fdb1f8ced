"""Hostile bytes for trust-boundary decoders (ROADMAP item 1).

One mutation strategy and one verdict, shared by every decoder an
untrusted party can feed.  A decoder joins by adding a row to
``DECODERS`` in ``tests/property/test_prop_hostile_bytes.py``: a
strategy of valid values, its encoder, its decoder, and the typed
error(s) it may raise.
"""

from hypothesis import strategies as st


def _truncate(data: bytes, cut: int) -> bytes:
    return data[: cut % (len(data) + 1)]


def _bit_flip(data: bytes, position: int) -> bytes:
    if not data:
        return b"\x01"
    index, bit = divmod(position % (8 * len(data)), 8)
    return data[:index] + bytes([data[index] ^ (1 << bit)]) + data[index + 1:]


def _length_lie(data: bytes, offset: int, width: int, delta: int) -> bytes:
    """Nudge the big-endian integer at ``offset`` by ``delta``: wherever
    a format keeps a length, some draw lands on it and lies a little."""
    if len(data) < width:
        return data + b"\x01"
    offset %= len(data) - width + 1
    field = int.from_bytes(data[offset:offset + width], "big")
    lied = (field + delta) % (1 << (8 * width))
    return data[:offset] + lied.to_bytes(width, "big") + data[offset + width:]


def _splice(data: bytes, other: bytes, cut: int, other_cut: int) -> bytes:
    return data[: cut % (len(data) + 1)] + other[other_cut % (len(other) + 1):]


def nested_lists(levels: int) -> bytes:
    """Canonical RLP of ``levels`` lists, each holding only the next, built
    without recursion: 20,000 levels are 60 KB of list prefixes."""
    from repro.rlp.codec import _encode_length

    headers = []
    length = 0
    for _ in range(levels):
        header = _encode_length(length, 0xC0)
        headers.append(header)
        length += len(header)
    return b"".join(reversed(headers))


def mutated(valid: st.SearchStrategy[bytes]) -> st.SearchStrategy[bytes]:
    """Truncations, bit flips, length lies and two-message splices of
    the encodings ``valid`` draws."""
    position = st.integers(min_value=0, max_value=1 << 16)
    return st.one_of(
        st.builds(_truncate, valid, position),
        st.builds(_bit_flip, valid, position),
        st.builds(
            _length_lie, valid, position, st.sampled_from([1, 2, 4]),
            st.sampled_from([-3, -2, -1, 1, 2, 3, 255, 256]),
        ),
        st.builds(_splice, valid, valid, position, position),
    )


def assert_total(decode, encode, data: bytes, typed_errors) -> None:
    """``decode(data)`` raises one of ``typed_errors`` or returns a value
    that re-encodes to ``data``; anything else it raises — ``ValueError``,
    ``TypeError``, ``IndexError``, ``struct.error``,
    ``UnicodeDecodeError`` — propagates and fails the test."""
    try:
        value = decode(data)
    except typed_errors:
        return
    assert encode(value) == data
