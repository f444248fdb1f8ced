"""Property tests for the shared ORAM slot codec (``repro.oram.slot``)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.oram import slot
from repro.oram.client import PathOramClient
from repro.oram.hierarchical import HierarchicalOramServer, PyramidOramClient
from repro.oram.server import OramServer

KEY = b"s" * 32
BLOCK_SIZES = (64, 1024)  # recursion/test blocks and world-state pages

kinds = st.sampled_from((slot.KIND_DUMMY, slot.KIND_REAL, slot.KIND_NEGATIVE))
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


@given(st.binary(min_size=1, max_size=slot.MAX_KEY_BYTES), st.binary(max_size=64))
@settings(max_examples=25, deadline=None)
def test_path_and_pyramid_read_each_others_slots(key, payload):
    """Same key, same layout: a slot one protocol sealed opens and
    decodes through the other protocol's read path."""
    path = PathOramClient(OramServer(height=2), KEY, block_size=64)
    pyramid = PyramidOramClient(
        HierarchicalOramServer(), KEY, block_size=64, cache_limit=2
    )
    padded = payload.ljust(64, b"\x00")

    # Path seals (an eviction write-back); Pyramid's slot reader opens it.
    path.write(key, payload)
    real = []
    for node, bucket in enumerate(path.server.snapshot_tree()):
        aad = path._bucket_aad(node, path._node_versions.get(node, 0))
        for blob in bucket:
            kind, blob_key, blob_payload = pyramid._decrypt_slot(blob, aad)
            if kind != slot.KIND_DUMMY:
                real.append((kind, blob_key, blob_payload))
    assert real == [(slot.KIND_REAL, key, padded)]

    # Pyramid seals; Path's tree reader opens it.
    blob = pyramid._encrypt_slot(
        slot.KIND_REAL, key, payload, path._bucket_aad(0, 0)
    )
    fresh = PathOramClient(OramServer(height=2), KEY, block_size=64)
    tree = SimpleNamespace(snapshot_tree=lambda: [[blob]])
    assert fresh.logical_content(tree) == {key: padded}
