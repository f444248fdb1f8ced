"""RLP codec against the canonical Ethereum examples."""

import pytest

from repro.rlp import codec as rlp
from repro.rlp.codec import MAX_NESTING_DEPTH, DecodingError
from tests.hostile import nested_lists


@pytest.mark.parametrize(
    "item,expected",
    [
        (b"dog", b"\x83dog"),
        ([b"cat", b"dog"], b"\xc8\x83cat\x83dog"),
        (b"", b"\x80"),
        ([], b"\xc0"),
        (b"\x00", b"\x00"),
        (b"\x0f", b"\x0f"),
        (b"\x04\x00", b"\x82\x04\x00"),
        (
            [[], [[]], [[], [[]]]],
            b"\xc7\xc0\xc1\xc0\xc3\xc0\xc1\xc0",
        ),
    ],
)
def test_canonical_examples(item, expected):
    assert rlp.encode(item) == expected
    assert rlp.decode(expected) == item


def test_long_string():
    payload = b"Lorem ipsum dolor sit amet, consectetur adipisicing elit"
    encoded = rlp.encode(payload)
    assert encoded[0] == 0xB8
    assert encoded[1] == len(payload)
    assert rlp.decode(encoded) == payload


def test_long_list():
    items = [b"x" * 10] * 10
    encoded = rlp.encode(items)
    assert encoded[0] >= 0xF8
    assert rlp.decode(encoded) == items


def test_nested_structures():
    item = [b"a", [b"b", [b"c", b""]], b"d"]
    assert rlp.decode(rlp.encode(item)) == item


def test_encode_uint():
    assert rlp.encode_uint(0) == b""
    assert rlp.encode_uint(1) == b"\x01"
    assert rlp.encode_uint(255) == b"\xff"
    assert rlp.encode_uint(256) == b"\x01\x00"
    with pytest.raises(ValueError):
        rlp.encode_uint(-1)


def test_decode_uint_roundtrip():
    for value in (0, 1, 127, 128, 255, 2**64, 2**255):
        assert rlp.decode_uint(rlp.encode_uint(value)) == value


def test_decode_uint_rejects_leading_zero():
    with pytest.raises(DecodingError):
        rlp.decode_uint(b"\x00\x01")


def test_reject_trailing_bytes():
    with pytest.raises(DecodingError):
        rlp.decode(rlp.encode(b"dog") + b"\x00")


def test_reject_truncated_input():
    encoded = rlp.encode(b"x" * 100)
    with pytest.raises(DecodingError):
        rlp.decode(encoded[:-1])


def test_reject_non_minimal_single_byte():
    # 0x81 0x05 encodes a single byte < 0x80, which must self-encode.
    with pytest.raises(DecodingError):
        rlp.decode(b"\x81\x05")


def test_reject_non_canonical_long_length():
    # Long-string form used for a 1-byte payload.
    with pytest.raises(DecodingError):
        rlp.decode(b"\xb8\x01\x05")


def test_reject_unencodable_type():
    with pytest.raises(TypeError):
        rlp.encode(42)  # ints must go through encode_uint


def test_deep_nesting_roundtrip():
    item = b"leaf"
    for _ in range(30):
        item = [item]
    assert rlp.decode(rlp.encode(item)) == item


def test_nesting_is_bounded_by_a_typed_error():
    """Depth is the one thing a short input can make large: at the bound
    it decodes, past it the error is typed — never the interpreter's
    RecursionError, however high the recursion limit has been raised."""
    item: list = []
    for _ in range(MAX_NESTING_DEPTH - 1):
        item = [item]
    assert rlp.encode(item) == nested_lists(MAX_NESTING_DEPTH)
    assert rlp.decode(nested_lists(MAX_NESTING_DEPTH)) == item
    for levels in (MAX_NESTING_DEPTH + 1, 20_000):
        with pytest.raises(DecodingError, match="nested deeper"):
            rlp.decode(nested_lists(levels))
