"""Property tests for the ORAM slot codec (``repro.oram.slot``)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.oram import slot

BLOCK_SIZES = (64, 1024)  # test blocks and world-state pages

kinds = st.sampled_from((slot.KIND_DUMMY, slot.KIND_REAL))
block_keys = st.binary(max_size=slot.MAX_KEY_BYTES)


@given(kinds, block_keys, st.sampled_from(BLOCK_SIZES), st.data())
@settings(max_examples=60, deadline=None)
def test_slot_roundtrip(kind, key, block_size, data):
    payload = data.draw(st.binary(max_size=block_size))
    body = slot.encode(kind, key, payload, block_size)
    # every slot of one store is the same size, whatever it holds
    assert len(body) == 3 + slot.MAX_KEY_BYTES + block_size
    assert slot.decode(body, block_size) == (
        kind, key, payload.ljust(block_size, b"\x00")
    )


@given(st.binary(min_size=slot.MAX_KEY_BYTES + 1, max_size=200))
@settings(max_examples=20, deadline=None)
def test_oversized_key_is_refused(key):
    with pytest.raises(ValueError):
        slot.encode(slot.KIND_REAL, key, b"", 64)
