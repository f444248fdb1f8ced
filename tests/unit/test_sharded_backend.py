"""Unit tests for the sharded fleet and its routing client."""

import hashlib

import pytest

from repro.oram import paging
from repro.security.observer import AccessPatternObserver
from repro.sharding import (
    ShardedObliviousStateBackend,
    ShardedOramConfig,
    ShardedOramFleet,
    shard_key,
)
from repro.state.account import Account

pytestmark = pytest.mark.sharding

MASTER = hashlib.sha256(b"test-fleet-master").digest()


def _fleet(shard_count=4, **overrides):
    config = ShardedOramConfig(
        shard_count=shard_count, oram_height=6, **overrides
    )
    return ShardedOramFleet(config, MASTER)


def _accounts(n=6):
    out = {}
    for i in range(n):
        address = hashlib.blake2b(b"acct%d" % i, digest_size=20).digest()
        out[address] = Account(
            balance=1000 + i, nonce=i, code=b"\x60" * 40, storage={0: i, 40: i * 2}
        )
    return out


def _per_shard_accesses(fleet):
    return {
        sid: shard.client.stats.accesses
        for sid, shard in sorted(fleet.shards.items())
    }


def test_shard_keys_are_distinct_and_deterministic():
    keys = [shard_key(MASTER, sid) for sid in range(8)]
    assert len(set(keys)) == 8
    assert keys == [shard_key(MASTER, sid) for sid in range(8)]
    assert shard_key(b"other" * 7, 0) != keys[0]


def test_fleet_builds_one_store_per_shard():
    fleet = _fleet(4)
    assert sorted(fleet.shards) == [0, 1, 2, 3]
    servers = {id(shard.server) for shard in fleet.shards.values()}
    assert len(servers) == 4  # independent stores, no sharing
    assert {shard.key for shard in fleet.shards.values()} == {
        shard_key(MASTER, sid) for sid in range(4)
    }


def test_backend_overrides_select_pyramid_per_shard():
    fleet = _fleet(4, backend_overrides={2: "pyramid"})
    assert [fleet.shards[sid].backend for sid in range(4)] == [
        "path", "path", "pyramid", "path"
    ]
    with pytest.raises(ValueError):
        _fleet(1, backend_overrides={0: "cuckoo"})


def test_accesses_route_by_ring_and_round_trip():
    fleet = _fleet(4)
    backend = ShardedObliviousStateBackend(fleet)
    accounts = _accounts()
    backend.sync_world(accounts)
    for address, account in accounts.items():
        assert backend.get_meta(address).balance == account.balance
        assert backend.get_storage(address, 40) == account.storage[40]
    # Traffic landed on the ring-designated shards only.
    for address in accounts:
        page = paging.account_page_key(address)
        owner = fleet.ring.shard_for(page)
        assert fleet.shards[owner].client.stats.accesses > 0
    per_shard = _per_shard_accesses(fleet)
    assert sum(per_shard.values()) == backend.stats.total + _pages(accounts)


def _pages(accounts):
    return sum(2 + len({k // 32 for k in a.storage}) for a in accounts.values())


def test_single_shard_fleet_matches_unsharded_wire():
    from repro.oram.client import PathOramClient
    from repro.oram.server import OramServer

    config = ShardedOramConfig(shard_count=1, oram_height=6)
    fleet = ShardedOramFleet(config, MASTER)
    sharded_observer = AccessPatternObserver().attach(fleet.shards[0].server)
    sharded = ShardedObliviousStateBackend(fleet)

    server = OramServer(height=6, bucket_size=4)
    unsharded_observer = AccessPatternObserver().attach(server)
    client = PathOramClient(
        server, shard_key(MASTER, 0), block_size=paging.PAGE_SIZE,
        stash_limit=1024, decrypt_memo_blocks=4096,
    )
    from repro.oram.adapter import ObliviousStateBackend

    unsharded = ObliviousStateBackend(client)

    accounts = _accounts()
    sharded.sync_world(accounts)
    unsharded.sync_world(accounts)
    for address in accounts:
        sharded.get_meta(address)
        unsharded.get_meta(address)
    assert sharded_observer.leaves == unsharded_observer.leaves
    assert fleet.shards[0].server.snapshot_tree() == server.snapshot_tree()


def test_mixed_backend_fleet_round_trips():
    fleet = _fleet(4, backend_overrides={1: "pyramid", 3: "pyramid"})
    backend = ShardedObliviousStateBackend(fleet)
    accounts = _accounts(10)
    backend.sync_world(accounts)
    for address, account in accounts.items():
        assert backend.get_meta(address).nonce == account.nonce
        assert backend.get_storage(address, 0) == account.storage[0]
    # Both kinds of shard served traffic.
    assert all(_per_shard_accesses(fleet).values())


def test_block_delta_routes_each_page_to_its_owner():
    """``sync_delta`` is read-modify-write (``access(key, modify=fn)``);
    on a fleet each page's access goes to its ring owner, Path or
    Pyramid alike."""
    fleet = _fleet(4, backend_overrides={1: "pyramid", 3: "pyramid"})
    backend = ShardedObliviousStateBackend(fleet)
    accounts = _accounts()
    backend.sync_world(accounts)
    before = _per_shard_accesses(fleet)
    address = sorted(accounts)[0]
    meta = backend.get_meta(address)
    # The account page and the two storage groups holding a changed slot.
    assert backend.sync_delta(address, meta, {0: 7, 40: 0}, None) == 3
    pages = [
        paging.account_page_key(address),
        paging.account_page_key(address),
        paging.storage_page_key(address, 0),
        paging.storage_page_key(address, 40),
    ]
    expected = dict(before)
    for page in pages:
        expected[fleet.ring.shard_for(page)] += 1
    assert _per_shard_accesses(fleet) == expected
    assert backend.get_storage(address, 0) == 7
    assert backend.get_storage(address, 40) == 0
    assert backend.get_meta(address).balance == accounts[address].balance

def test_last_access_is_the_last_routed_shards_summary():
    """The router reports the shard that served the *last* access, not
    the busiest one: five writes to one shard, then one to another."""
    fleet = _fleet(2)
    router = ShardedObliviousStateBackend(fleet).router
    keys = {0: [], 1: []}
    for index in range(64):
        key = b"page-%d" % index
        keys[fleet.ring.shard_for(key)].append(key)
    for key in keys[0][:5]:
        router.write(key, b"busy")
    router.write(keys[1][0], b"last")
    assert _per_shard_accesses(fleet) == {0: 5, 1: 1}
    assert router.last_access is fleet.shards[1].client.last_access
    router.read(keys[0][0])
    assert router.last_access is fleet.shards[0].client.last_access
