"""Path ORAM: server geometry, client protocol, obliviousness basics."""

import copy

import pytest

from repro.crypto.kdf import Drbg
from repro.oram.client import PathOramClient, StashOverflow
from repro.oram.server import OramServer
from repro.oram.store import BUCKET_SIZE, STASH_LIMIT_BLOCKS, build_client, build_server
from repro.security.observer import AccessPatternObserver


@pytest.fixture
def server():
    return OramServer(height=6)


@pytest.fixture
def client(server):
    return PathOramClient(server, key=b"k" * 32, block_size=256)


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
    with pytest.raises(ValueError):
        server.write_path(0, {1: [b"too-few"]})
    with pytest.raises(ValueError):
        server.write_path(0, {9999: [b"x"] * 4})


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


def test_refused_write_leaves_server_and_client_untouched(server, client):
    """An oversized write is refused before the path read: the SP sees
    no access, and stash, position map and stats are as they were."""
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


def test_oversized_modify_result_completes_as_a_read_then_raises(server, client):
    """``modify`` runs mid-access, after the path read: an oversized
    result leaves the block alone, the path is still written back, and
    the refusal surfaces once the access is over."""
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


def test_every_access_is_one_path(server, client):
    observer = AccessPatternObserver().attach(server)
    client.write(b"a", b"1")
    client.read(b"a")
    client.read(b"missing")
    assert len(observer.events) == 3  # even the miss costs one access
    for event in observer.events:
        assert len(event.node_indices) == server.height + 1


def test_stash_limit_enforced():
    server = OramServer(height=1, bucket_size=1)  # pathological: tiny tree
    client = PathOramClient(
        server, key=b"k" * 32, block_size=64, stash_limit=2
    )
    with pytest.raises(StashOverflow):
        for i in range(50):
            client.write(b"key%d" % i, b"v")


def test_stash_stays_small_under_load(server):
    client = PathOramClient(server, key=b"k" * 32, block_size=64, stash_limit=64)
    rng = Drbg(b"workload")
    for i in range(400):
        client.write(b"key%d" % rng.randint(100), b"v%d" % i)
    # Stefanov & Shi: stash is O(log n) w.h.p.; with Z=4 it is tiny.
    assert client.stats.max_stash_blocks <= 20


def test_reencryption_changes_ciphertexts(server, client):
    client.write(b"a", b"1")
    snapshot_one = [list(bucket) for bucket in server._buckets]
    client.read(b"a")
    snapshot_two = [list(bucket) for bucket in server._buckets]
    # The accessed path was rewritten with fresh ciphertexts.
    changed = sum(
        1 for before, after in zip(snapshot_one, snapshot_two) if before != after
    )
    assert changed >= 1


def test_dummy_and_real_blocks_same_size(server, client):
    client.write(b"a", b"1")
    sizes = {
        len(blob)
        for bucket in server._buckets
        for blob in bucket
    }
    assert len(sizes) == 1  # indistinguishable by length


def test_remap_after_access(server):
    client = PathOramClient(server, key=b"k" * 32, block_size=64)
    client.write(b"a", b"1")
    positions = []
    for _ in range(30):
        positions.append(client._positions.get(b"a"))
        client.read(b"a")
    # The leaf must change over repeated accesses (remap on every touch).
    assert len(set(positions)) > 5


# -- the store builders ---------------------------------------------------------


def test_store_builders_share_one_geometry():
    """``repro.oram.store`` builds both halves of the one store."""
    server = build_server(height=5)
    assert isinstance(server, OramServer)
    assert (server.height, server.bucket_size) == (5, BUCKET_SIZE)
    client = build_client(server, b"k" * 32, block_size=64)
    assert isinstance(client, PathOramClient) and client.server is server
    assert client.stash_limit == STASH_LIMIT_BLOCKS
    client.write(b"a", b"1")
    assert client.read(b"a").rstrip(b"\x00") == b"1"
