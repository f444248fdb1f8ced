"""Property: the decrypt memo never changes what the client accepts.

Two clients run the same seeded access sequence over byte-equal trees —
one with the memo, one with ``decrypt_memo_blocks=None`` — while the SP
rewrites the stored tree between accesses, a bucket — one AES-GCM
message — at a time: flips a byte of one (nonce, any slot's body or
tag), swaps two nodes' buckets, splices the head of one bucket onto the
tail of another, copies one slot's ciphertext over another's inside one
bucket, replays one bucket from an earlier snapshot, restores a whole
earlier tree.  At every step both raise the same exception type or
return the same payload, hold equal trusted state, and leave byte-equal
trees.  The memo answers only for buckets byte-equal to what it
recorded under the AAD pinned now; the bare cipher decides everything
else on both sides.
"""

from hypothesis import given, settings, strategies as st

from repro.crypto.suite import AuthenticationError
from repro.crypto.suite import AcceleratedAesGcmAead, AesGcmAead
from repro.oram import slot as slot_layout
from repro.oram.client import PathOramClient, RollbackDetectedError
from repro.oram.server import OramServer

KEY = b"e" * 32
HEIGHT = 3
NODES = 1 << (HEIGHT + 1)
BLOCK = 32
BODY = slot_layout.body_bytes(BLOCK)


class _TamperingServer:
    """The SP's hands on the stored tree, between the client's accesses."""

    def __init__(self, inner: OramServer) -> None:
        self._inner = inner
        self.kept: list[bytes] | None = None  # an earlier snapshot

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def tamper(self, step) -> None:
        tree = self._inner.snapshot_tree()
        kind = step[0]
        if kind == "keep":
            self.kept = tree
            return
        if kind == "restore":
            if self.kept is not None:
                self._inner.restore_tree(self.kept)
            return
        _kind, node, slot, other_node, other_slot, offset = step
        bucket, other = tree[node], tree[other_node]
        if not bucket or not other:
            return  # nothing stored there yet
        if kind == "flip":
            blob = bytearray(bucket)
            blob[offset % len(blob)] ^= 0x40
            tree[node] = bytes(blob)
        elif kind == "swap":
            tree[node], tree[other_node] = other, bucket
        elif kind == "splice":
            cut = offset % len(bucket)
            tree[node] = bucket[:cut] + other[cut:]
        elif kind == "slot":
            # One slot's ciphertext over another's, inside one bucket.
            at, source = 12 + slot * BODY, 12 + other_slot * BODY
            tree[node] = bucket[:at] + bucket[source:source + BODY] + bucket[at + BODY:]
        elif kind == "replay" and self.kept is not None and self.kept[node]:
            tree[node] = self.kept[node]
        self._inner.restore_tree(tree)


def _outcome(client: PathOramClient, key: bytes, data: bytes | None):
    try:
        return client.access(key, data)
    except (AuthenticationError, RollbackDetectedError) as exc:
        return type(exc)


def _trusted(client: PathOramClient):
    return (
        client._stash, client._positions, client._node_versions,
        client._nonce_counter, client.stats.blocks_decrypted,
        client.stats.blocks_encrypted, client.stats.rollbacks_detected,
    )


_slot = st.integers(min_value=0, max_value=3)
# Low node numbers sit near the root, on most paths: tampering bites.
_node = st.integers(min_value=1, max_value=NODES - 1)
# Offsets land in the nonce (< 12), any slot's body, or — from the end —
# the tag.
_offset = st.one_of(
    # every field's first and last byte, each slot boundary
    st.sampled_from([0, 11, 12, 12 + BODY - 1, 12 + BODY, 12 + 3 * BODY, -17, -16, -1]),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=12, max_value=12 + 4 * BODY - 1),
    st.integers(min_value=-16, max_value=-1),
)
_tamper = st.one_of(
    st.tuples(st.sampled_from(["flip", "swap", "splice", "slot", "replay"]),
              _node, _slot, _node, _slot, _offset),
    st.tuples(st.sampled_from(["keep", "restore"])),
)
_access = st.tuples(
    st.just("access"),
    st.integers(min_value=0, max_value=7),
    st.one_of(st.none(), st.binary(min_size=1, max_size=8)),
)
_steps = st.lists(st.one_of(_access, _access, _tamper), min_size=1, max_size=40)


@given(_steps, st.sampled_from([AcceleratedAesGcmAead, AesGcmAead]), st.sampled_from([4096, 8]))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_memo_on_and_off_agree_under_a_tampering_server(steps, cipher, bound):
    sides = []
    for memo_blocks in (bound, None):
        server = _TamperingServer(OramServer(height=HEIGHT, block_size=BLOCK))
        client = PathOramClient(
            server, KEY, block_size=BLOCK, cipher_factory=cipher,
            decrypt_memo_blocks=memo_blocks,
        )
        for i in range(12):  # a populated tree before the SP starts
            client.write(b"k%d" % (i % 8), b"seed-%d" % i)
        sides.append((server, client))
    (server_on, on), (server_off, off) = sides
    for step in steps:
        if step[0] == "access":
            _kind, index, data = step
            key = b"k%d" % index
            assert _outcome(on, key, data) == _outcome(off, key, data)
        else:
            server_on.tamper(step)
            server_off.tamper(step)
        assert _trusted(on) == _trusted(off)
        assert server_on.snapshot_tree() == server_off.snapshot_tree()
    assert off.memo is None and on.memo.stats.hits > 0
