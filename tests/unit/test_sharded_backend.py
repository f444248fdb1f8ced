"""Unit tests for the sharded fleet, routing client, and pin protocol."""

import hashlib

import pytest

from repro.oram import paging
from repro.security.observer import AccessPatternObserver
from repro.sharding import (
    ShardedObliviousStateBackend,
    ShardedOramConfig,
    ShardedOramFleet,
    ShardPinnedError,
    ShardUnavailableError,
    SyncRootCoordinator,
    UnpinnedShardAccessError,
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


def test_shard_keys_are_distinct_and_deterministic():
    keys = [shard_key(MASTER, sid) for sid in range(8)]
    assert len(set(keys)) == 8
    assert keys == [shard_key(MASTER, sid) for sid in range(8)]
    assert shard_key(b"other" * 7, 0) != keys[0]


def test_fleet_builds_one_store_per_shard():
    fleet = _fleet(4)
    assert fleet.shard_ids == (0, 1, 2, 3)
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
        owner = backend.shard_for_page(page)
        assert fleet.shards[owner].client.stats.accesses > 0
    per_shard = backend.router.per_shard_accesses()
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


def test_crash_is_a_typed_per_shard_error():
    fleet = _fleet(4)
    backend = ShardedObliviousStateBackend(fleet)
    accounts = _accounts()
    backend.sync_world(accounts)
    victim_address = next(iter(accounts))
    victim = backend.shard_for_page(paging.account_page_key(victim_address))
    backend.router.mark_crashed(victim, "unit-test")
    with pytest.raises(ShardUnavailableError) as err:
        backend.get_meta(victim_address)
    assert err.value.shard_id == victim
    # Every other shard keeps serving.
    for address in accounts:
        if backend.shard_for_page(paging.account_page_key(address)) != victim:
            backend.get_meta(address)
    backend.router.mark_recovered(victim)
    assert backend.get_meta(victim_address).balance == accounts[victim_address].balance


def test_two_phase_pin_scopes_access_and_blocks_sync():
    fleet = _fleet(4)
    backend = ShardedObliviousStateBackend(fleet)
    accounts = _accounts()
    backend.sync_world(accounts)
    addresses = sorted(accounts)
    tx_pages = [paging.account_page_key(a) for a in addresses[:2]]
    pinned_shards = backend.shards_for_pages(tx_pages)
    outside = next(
        a for a in addresses
        if backend.shard_for_page(paging.account_page_key(a)) not in pinned_shards
    )
    with backend.pinned(tx_pages) as ticket:
        assert ticket.shard_ids == pinned_shards
        for a in addresses[:2]:
            backend.get_meta(a)  # in-set access is fine
        with pytest.raises(UnpinnedShardAccessError):
            backend.get_meta(outside)
        with pytest.raises(ShardPinnedError):
            backend.sync_account(addresses[0], accounts[addresses[0]])
        assert backend.coordinator.stats.sync_conflicts == 1
        # A block delta is refused for the pages it is about to write.
        meta = backend.get_meta(addresses[0])
        with pytest.raises(ShardPinnedError):
            backend.sync_delta(addresses[0], meta, {}, None)
        group = next(
            group for group in range(64)
            if backend.shard_for_page(paging.storage_page_key(outside, 32 * group))
            in pinned_shards
        )
        with pytest.raises(ShardPinnedError):
            backend.sync_delta(outside, meta, {32 * group: 1}, None)
        assert backend.coordinator.stats.sync_conflicts == 3
    # Released: both the out-of-set read and the syncs work again.
    backend.get_meta(outside)
    backend.sync_account(addresses[0], accounts[addresses[0]])
    assert backend.sync_delta(addresses[0], meta, {32 * group: 1}, None) == 2
    assert backend.get_storage(addresses[0], 32 * group) == 1


def test_pins_are_shared_and_ordered():
    coordinator = SyncRootCoordinator((0, 1, 2, 3))
    first = coordinator.pin((2, 0))
    second = coordinator.pin((0, 3))  # overlapping pins coexist (reader-style)
    assert first.shard_ids == (0, 2)  # ascending = fleet lock order
    assert coordinator.pinned_shards() == (0, 2, 3)
    coordinator.release(first)
    assert coordinator.pinned_shards() == (0, 3)
    coordinator.release(second)
    with pytest.raises(ValueError):
        coordinator.release(second)


def test_note_root_refused_while_pinned():
    coordinator = SyncRootCoordinator((0, 1))
    ticket = coordinator.pin((1,))
    coordinator.note_root(0, b"root-a")  # unpinned shard: fine
    with pytest.raises(ShardPinnedError):
        coordinator.note_root(1, b"root-a")
    coordinator.release(ticket)
    coordinator.note_root(1, b"root-a")
    assert coordinator.root_of(1) == b"root-a"


def test_sync_world_notes_roots_fleet_wide():
    fleet = _fleet(2)
    backend = ShardedObliviousStateBackend(fleet)
    backend.sync_world(_accounts(3), state_root=b"R" * 32)
    for sid in fleet.shard_ids:
        assert backend.coordinator.root_of(sid) == b"R" * 32


def test_mixed_backend_fleet_round_trips():
    fleet = _fleet(4, backend_overrides={1: "pyramid", 3: "pyramid"})
    backend = ShardedObliviousStateBackend(fleet)
    accounts = _accounts(10)
    backend.sync_world(accounts)
    for address, account in accounts.items():
        assert backend.get_meta(address).nonce == account.nonce
        assert backend.get_storage(address, 0) == account.storage[0]
    assert set(backend.router.per_shard_accesses()) == {0, 1, 2, 3}


def test_last_access_is_the_last_routed_shards_summary():
    """The router reports the shard that served the *last* access, not
    the busiest one: five writes to one shard, then one to another."""
    fleet = _fleet(2)
    router = ShardedObliviousStateBackend(fleet).router
    keys = {0: [], 1: []}
    for index in range(64):
        key = b"page-%d" % index
        keys[router.shard_for(key)].append(key)
    for key in keys[0][:5]:
        router.write(key, b"busy")
    router.write(keys[1][0], b"last")
    assert router.per_shard_accesses() == {0: 5, 1: 1}
    assert router.last_access is fleet.shards[1].client.last_access
    router.read(keys[0][0])
    assert router.last_access is fleet.shards[0].client.last_access
    # A refused access is not a served one.
    router.mark_crashed(1, "test")
    with pytest.raises(ShardUnavailableError):
        router.read(keys[1][0])
    assert router.last_access is fleet.shards[0].client.last_access
