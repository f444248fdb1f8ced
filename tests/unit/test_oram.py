"""Path ORAM: server geometry, client protocol, obliviousness basics."""

import copy

import pytest

from repro.crypto.kdf import Drbg
from repro.crypto.suite import AuthenticationError
from repro.oram import slot
from repro.oram.client import PathOramClient, RollbackDetectedError, StashOverflow
from repro.oram.server import OramServer
from repro.oram.store import BUCKET_SIZE, STASH_LIMIT_BLOCKS, build_client, build_server
from repro.security.observer import AccessPatternObserver


@pytest.fixture
def server():
    return OramServer(height=6)


@pytest.fixture
def small_server():
    return OramServer(height=6, block_size=256)


@pytest.fixture
def client(small_server):
    return PathOramClient(small_server, key=b"k" * 32, block_size=256)


# -- server geometry -----------------------------------------------------------


def test_path_nodes_root_to_leaf(server):
    path = server.path_nodes(0)
    assert path[0] == 1  # root
    assert path[-1] == server.leaf_count  # leftmost leaf node
    assert len(path) == server.height + 1


def test_path_nodes_parent_links(server):
    path = server.path_nodes(37)
    for parent, child in zip(path, path[1:]):
        assert child // 2 == parent


def test_leaf_out_of_range(server):
    with pytest.raises(ValueError):
        server.path_nodes(server.leaf_count)
    with pytest.raises(ValueError):
        server.path_nodes(-1)


def test_write_path_shape_enforced(server):
    """A bucket is one ciphertext of the one fixed length: anything else
    is refused, and a refused write stores nothing."""
    full = b"x" * server.bucket_bytes
    assert server.bucket_bytes == 12 + 4 * (67 + 1024) + 16
    for bucket in (
        b"short",
        full + b"x",
        b"",
        [b"y" * 1107] * 4,  # Z slot blobs: the per-slot wire format
        bytearray(full),
    ):
        with pytest.raises(ValueError, match="one ciphertext"):
            server.write_path(0, {1: full, 2: bucket})
    with pytest.raises(ValueError):
        server.write_path(0, {9999: full})
    assert server.snapshot_tree() == [b""] * (2 * server.leaf_count)
    assert server.stats.writes == 0
    server.write_path(0, {1: full})
    assert server.snapshot_tree()[1] is full and server.stats.writes == 1


def test_client_and_server_agree_on_the_block_size(server):
    with pytest.raises(ValueError, match="1024-byte blocks"):
        PathOramClient(server, key=b"k" * 32, block_size=256)


def test_capacity(server):
    assert server.capacity_blocks() == (2 * 64 - 1) * 4


# -- client protocol ------------------------------------------------------------


def test_read_missing_returns_none(client):
    assert client.read(b"nothing") is None


def test_write_then_read(client):
    client.write(b"key1", b"hello")
    got = client.read(b"key1")
    assert got is not None and got[:5] == b"hello"
    assert len(got) == 256  # padded to block size


def test_overwrite(client):
    client.write(b"key1", b"v1")
    client.write(b"key1", b"v2")
    assert client.read(b"key1")[:2] == b"v2"


def test_write_too_large_rejected(client):
    with pytest.raises(ValueError):
        client.write(b"key1", b"x" * 257)


def test_refused_write_leaves_server_and_client_untouched(small_server, client):
    """An oversized write is refused before the path read: the SP sees
    no access, and stash, position map and stats are as they were."""
    server = small_server
    client.write(b"key1", b"v1")
    observer = AccessPatternObserver().attach(server)
    server_stats = copy.deepcopy(server.stats)
    client_stats = copy.deepcopy(client.stats)
    stash, positions = dict(client._stash), dict(client._positions)
    with pytest.raises(ValueError):
        client.write(b"key1", b"x" * 257)
    assert observer.events == []
    assert server.stats == server_stats
    assert client.stats == client_stats
    assert client._stash == stash and client._positions == positions


def test_oversized_modify_result_completes_as_a_read_then_raises(
    small_server, client
):
    """``modify`` runs mid-access, after the path read: an oversized
    result leaves the block alone, the path is still written back, and
    the refusal surfaces once the access is over."""
    server = small_server
    client.write(b"key1", b"v1")
    reads, writes = server.stats.reads, server.stats.writes
    with pytest.raises(ValueError):
        client.access(b"key1", modify=lambda page: b"x" * 257)
    assert (server.stats.reads, server.stats.writes) == (reads + 1, writes + 1)
    assert client.read(b"key1")[:2] == b"v1"


def test_many_keys_roundtrip(client):
    for i in range(80):
        client.write(b"key%d" % i, b"value%d" % i)
    for i in range(80):
        value = client.read(b"key%d" % i)
        assert value is not None and value.rstrip(b"\x00") == b"value%d" % i


def test_every_access_is_one_path(small_server, client):
    server = small_server
    observer = AccessPatternObserver().attach(server)
    client.write(b"a", b"1")
    client.read(b"a")
    client.read(b"missing")
    assert len(observer.events) == 3  # even the miss costs one access
    for event in observer.events:
        assert len(event.node_indices) == server.height + 1


def test_stash_limit_enforced():
    # pathological: a tiny tree
    server = OramServer(height=1, bucket_size=1, block_size=64)
    client = PathOramClient(
        server, key=b"k" * 32, block_size=64, stash_limit=2
    )
    with pytest.raises(StashOverflow):
        for i in range(50):
            client.write(b"key%d" % i, b"v")


def test_stash_stays_small_under_load():
    server = OramServer(height=6, block_size=64)
    client = PathOramClient(server, key=b"k" * 32, block_size=64, stash_limit=64)
    rng = Drbg(b"workload")
    for i in range(400):
        client.write(b"key%d" % rng.randint(100), b"v%d" % i)
    # Stefanov & Shi: stash is O(log n) w.h.p.; with Z=4 it is tiny.
    assert client.stats.max_stash_blocks <= 20


def test_reencryption_changes_ciphertexts(small_server, client):
    server = small_server
    client.write(b"a", b"1")
    snapshot_one = server.snapshot_tree()
    client.read(b"a")
    snapshot_two = server.snapshot_tree()
    # Every bucket of the accessed path was rewritten with a fresh
    # ciphertext; the rest of the tree is as it was.
    changed = {
        node
        for node, (before, after) in enumerate(zip(snapshot_one, snapshot_two))
        if before != after
    }
    assert len(changed) == server.height + 1
    assert {blob[:12] for blob in snapshot_two} >= {
        (client._nonce_counter - index).to_bytes(12, "big")
        for index in range(server.height + 1)
    }


def test_dummy_and_real_blocks_same_size(small_server, client):
    """A bucket full of dummies and one holding a real block are the
    same length: the SP cannot count real blocks per bucket."""
    server = small_server
    client.write(b"a", b"1")
    client.write(b"b", b"2")
    written = [blob for blob in server.snapshot_tree() if blob]
    assert {len(blob) for blob in written} == {server.bucket_bytes}
    assert len(written) >= server.height + 1


def test_remap_after_access():
    server = OramServer(height=6, block_size=64)
    client = PathOramClient(server, key=b"k" * 32, block_size=64)
    client.write(b"a", b"1")
    positions = []
    for _ in range(30):
        positions.append(client._positions.get(b"a"))
        client.read(b"a")
    # The leaf must change over repeated accesses (remap on every touch).
    assert len(set(positions)) > 5


# -- the SP's hands on one bucket -----------------------------------------------
#
# Every case rewrites one stored bucket on the path of a key the client
# wrote, then reads the key.  Each must raise a typed error — never
# return a wrong or missing payload — and leave the client's trust
# state as it was, with the decrypt memo and without.  The first case
# is the hole per-slot sealing left: every slot of a bucket shared the
# bucket's (node, version) AAD, so a dummy slot copied over the real one
# authenticated, and ``read`` returned ``None`` for a written key.


_BODY = slot.body_bytes(64)


def _hostile_oram(memo_blocks):
    server = OramServer(height=4, block_size=64)
    client = PathOramClient(
        server, key=b"k" * 32, block_size=64, rng=Drbg(b"hostile"),
        decrypt_memo_blocks=memo_blocks,
    )
    client.write(b"key", b"value")
    client.write(b"other", b"x")
    return server, client


def _locate(server, client, key):
    """``(node, slot index)`` of ``key``'s block in the stored tree."""
    for node, blob in enumerate(server.snapshot_tree()):
        if not blob:
            continue
        aad = client._bucket_aad(node, client._node_versions[node])
        plain = client._cipher.decrypt(blob[:12], blob[12:], aad)
        for index, body in enumerate(slot.split(plain, 64)):
            if slot.decode(body, 64)[:2] == (slot.KIND_REAL, key):
                return node, index
    raise AssertionError("block not in the tree")


def _trust_state(client):
    return (
        dict(client._stash), dict(client._positions), dict(client._node_versions),
        client._nonce_counter,
    )


def _slot_substituted(bucket, into, source):
    at = 12 + into * _BODY
    copied = bucket[12 + source * _BODY:12 + (source + 1) * _BODY]
    return bucket[:at] + copied + bucket[at + _BODY:]


def _flipped(bucket, index):
    out = bytearray(bucket)
    out[index] ^= 0x01
    return bytes(out)


def _tampered_trees(server, client):
    """``(case, tampered tree, expected error)`` for each way to rewrite
    the bucket holding ``key``'s block."""
    node, real = _locate(server, client, b"key")
    tree = server.snapshot_tree()
    bucket = tree[node]
    dummy = (real + 1) % server.bucket_size
    other = next(
        index for index, blob in enumerate(tree) if blob and index != node
    )

    def with_bucket(blob):
        out = list(tree)
        out[node] = blob
        return out

    yield "slot substitution", with_bucket(
        _slot_substituted(bucket, real, dummy)
    ), AuthenticationError
    for index in (0, 11, 12, 12 + real * _BODY + 70, 12 + dummy * _BODY,
                  len(bucket) - 17, len(bucket) - 16, len(bucket) - 1):
        yield f"bit flip at {index}", with_bucket(_flipped(bucket, index)), (
            AuthenticationError
        )
    cut = 12 + real * _BODY + 5
    yield "splice", with_bucket(bucket[:cut] + tree[other][cut:]), AuthenticationError
    yield "another node's bucket", with_bucket(tree[other]), AuthenticationError
    yield "truncated", with_bucket(bucket[:-1]), AuthenticationError
    yield "deleted", with_bucket(b""), RollbackDetectedError


@pytest.mark.parametrize("memo_blocks", [4096, None], ids=["memo", "no-memo"])
def test_every_rewrite_of_a_bucket_is_a_typed_error(memo_blocks):
    server, client = _hostile_oram(memo_blocks)
    honest = server.snapshot_tree()
    before = _trust_state(client)
    cases = list(_tampered_trees(server, client))
    assert len(cases) == 13
    for case, tree, error in cases:
        server.restore_tree(tree)
        with pytest.raises(error) as excinfo:
            client.read(b"key")
        assert type(excinfo.value) is error, case
        assert _trust_state(client) == before, case
    # The honest tree back: the block reads as written.
    server.restore_tree(honest)
    assert client.read(b"key").rstrip(b"\x00") == b"value"


@pytest.mark.parametrize("memo_blocks", [4096, None], ids=["memo", "no-memo"])
def test_an_older_version_of_a_bucket_is_a_rollback(memo_blocks):
    server, client = _hostile_oram(memo_blocks)
    stale_root = server.snapshot_tree()[1]
    client.write(b"other", b"y")  # every access rewrites the root
    tree = server.snapshot_tree()
    tree[1] = stale_root
    server.restore_tree(tree)
    before = _trust_state(client)
    with pytest.raises(RollbackDetectedError) as excinfo:
        client.read(b"key")
    assert (excinfo.value.node, excinfo.value.served_version) == (
        1, excinfo.value.expected_version - 1
    )
    assert _trust_state(client) == before


# -- the store builders ---------------------------------------------------------


def test_store_builders_share_one_geometry():
    """``repro.oram.store`` builds both halves of the one store."""
    server = build_server(height=5, block_size=64)
    assert isinstance(server, OramServer)
    assert (server.height, server.bucket_size) == (5, BUCKET_SIZE)
    client = build_client(server, b"k" * 32, block_size=64)
    assert isinstance(client, PathOramClient) and client.server is server
    assert client.stash_limit == STASH_LIMIT_BLOCKS
    client.write(b"a", b"1")
    assert client.read(b"a").rstrip(b"\x00") == b"1"
