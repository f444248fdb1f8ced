"""Paged world-state schema, oblivious backend, prefetcher, encrypted store."""

import pytest

from repro.crypto.kdf import Drbg
from repro.oram import paging
from repro.oram.adapter import QUERY_LOG_RECORDS, ObliviousStateBackend
from repro.oram.client import PathOramClient
from repro.oram.encrypted_store import EncryptedKvStore
from repro.oram.prefetch import CodePrefetcher
from repro.oram.server import OramServer
from repro.state.account import Account, AccountMeta, EMPTY_CODE_HASH, to_address


@pytest.fixture
def backend():
    server = OramServer(height=8)
    client = PathOramClient(server, key=b"x" * 32)
    return ObliviousStateBackend(client)


# -- page schema -------------------------------------------------------------


def test_page_keys_distinct():
    address = to_address(1)
    keys = {
        paging.account_page_key(address),
        paging.storage_page_key(address, 0),
        paging.code_page_key(address, 0),
    }
    assert len(keys) == 3


def test_storage_keys_group_32():
    address = to_address(1)
    assert paging.storage_page_key(address, 0) == paging.storage_page_key(address, 31)
    assert paging.storage_page_key(address, 31) != paging.storage_page_key(address, 32)


def test_account_page_roundtrip():
    meta = AccountMeta(10**18, 5, b"\xaa" * 32, 777)
    page = paging.encode_account_page(meta)
    assert len(page) == paging.PAGE_SIZE
    decoded = paging.decode_account_page(page)
    assert decoded == meta


def test_account_page_none_is_empty():
    decoded = paging.decode_account_page(None)
    assert decoded.balance == 0 and decoded.code_hash == EMPTY_CODE_HASH


def test_storage_page_roundtrip():
    values = {32 * 3 + 5: 99, 32 * 3 + 31: 12345}
    page = paging.encode_storage_page(values, group=3)
    assert len(page) == paging.PAGE_SIZE
    assert paging.decode_storage_record(page, 32 * 3 + 5) == 99
    assert paging.decode_storage_record(page, 32 * 3 + 31) == 12345
    assert paging.decode_storage_record(page, 32 * 3 + 6) == 0
    assert paging.decode_storage_record(None, 5) == 0


def test_account_pages_walk_is_the_sync_write_sequence(backend):
    """Keys, bytes and order of the one account -> pages walk, spelled
    out the way ``sync_account`` wrote them before the walk existed;
    both backends write exactly this list."""
    from repro.sharding.backend import (
        ShardedObliviousStateBackend,
        ShardedOramConfig,
        ShardedOramFleet,
    )

    address = to_address(0xABC)
    code = bytes(range(256)) * 5  # 1280 B: one full page, one padded
    account = Account(
        balance=7, nonce=3, code=code, storage={40: 2, 3: 1, 33: 9}
    )
    meta = AccountMeta(7, 3, account.code_hash, len(code))
    expected = [
        (paging.account_page_key(address), paging.encode_account_page(meta)),
        (paging.storage_page_key(address, 0),
         paging.encode_storage_page(account.storage, 0)),
        (paging.storage_page_key(address, 32),
         paging.encode_storage_page(account.storage, 1)),
        (paging.code_page_key(address, 0), code[:1024]),
        (paging.code_page_key(address, 1), code[1024:].ljust(1024, b"\x00")),
    ]
    assert paging.account_pages(address, account) == expected
    assert paging.account_pages(address, Account()) == [
        (paging.account_page_key(address),
         paging.encode_account_page(AccountMeta(0, 0, EMPTY_CODE_HASH, 0))),
    ]

    sharded = ShardedObliviousStateBackend(
        ShardedOramFleet(ShardedOramConfig(shard_count=2, oram_height=4), b"m" * 32)
    )
    for target in (backend, sharded):
        written = []
        real_write = target.client.write
        target.client.write = lambda key, data, sim_time_us=0.0: (
            written.append((key, data)), real_write(key, data, sim_time_us)
        )
        assert target.sync_account(address, account) == len(expected)
        assert written == expected
        assert target.get_code(address) == code


# -- oblivious backend -----------------------------------------------------------


def test_sync_and_read_account(backend):
    address = to_address(0xAB)
    account = Account(balance=5, nonce=2, code=b"\x60\x01" * 700, storage={3: 7, 40: 8})
    pages = backend.sync_account(address, account)
    assert pages == 1 + 2 + 2  # meta + 2 storage groups + 2 code pages
    meta = backend.get_meta(address)
    assert meta.balance == 5 and meta.code_size == 1400
    assert backend.get_storage(address, 3) == 7
    assert backend.get_storage(address, 40) == 8
    assert backend.get_storage(address, 41) == 0
    assert backend.get_code(address) == account.code


def _every_store(backend):
    """The path backend and a two-shard fleet."""
    from repro.sharding.backend import (
        ShardedObliviousStateBackend,
        ShardedOramConfig,
        ShardedOramFleet,
    )

    fleet = ShardedOramFleet(
        ShardedOramConfig(shard_count=2, oram_height=5), b"m" * 32
    )
    return backend, ShardedObliviousStateBackend(fleet)


def test_access_hands_modify_the_page_it_read(backend):
    for store in _every_store(backend):
        client, seen = store.client, []

        def modify(page, write=None):
            seen.append(page)
            return write

        assert client.access(b"k", modify=modify) is None  # read, write nothing
        assert client.access(b"k", modify=lambda page: modify(page, b"one")) == (
            b"one".ljust(1024, b"\x00")
        )
        client.access(b"k", modify=lambda page: modify(page, page[:3] + b"-two"))
        assert client.access(b"k", modify=modify).rstrip(b"\x00") == b"one-two"
        assert [page and page.rstrip(b"\x00") for page in seen] == [
            None, None, b"one", b"one-two",
        ]
        assert client.read(b"k").rstrip(b"\x00") == b"one-two"


def test_sync_delta_rewrites_only_the_pages_it_names(backend):
    from repro.oram.adapter import MissingCodeError

    address = to_address(0xAB)
    code = b"\x60\x01" * 700
    account = Account(balance=5, nonce=2, code=code, storage={3: 7, 4: 1, 40: 8, 99: 9})
    for store in _every_store(backend):
        store.sync_account(address, account)
        writes = []
        real_access = store.client.access

        def access(key, write_data=None, sim_time_us=0.0, modify=None):
            writes.append(key)
            return real_access(key, write_data, sim_time_us, modify)

        store.client.access = access
        # A block moved the balance, cleared slot 3 and set 41: the account
        # page and two storage groups; group 3 (slot 99) and the code stay.
        meta = AccountMeta(6, 3, account.code_hash, -1)
        assert store.sync_delta(address, meta, {41: 5, 3: 0}, None) == 3
        assert writes == [
            paging.account_page_key(address),
            paging.storage_page_key(address, 0),
            paging.storage_page_key(address, 32),
        ]
        assert store.get_meta(address) == AccountMeta(6, 3, account.code_hash, 1400)
        assert [store.get_storage(address, key) for key in (3, 4, 40, 41, 99)] == [
            0, 1, 8, 5, 9,
        ]
        assert store.get_code(address) == code

        # A new code hash without the code: refused, the page put back.
        other = Account(code=b"\x60\x02" * 100)
        del writes[:]
        with pytest.raises(MissingCodeError):
            store.sync_delta(
                address, AccountMeta(1, 1, other.code_hash, -1), {3: 1}, None
            )
        assert writes == [paging.account_page_key(address)]
        assert store.get_meta(address).balance == 6
        assert store.get_storage(address, 3) == 0
        # With it: the account page and the code's one page.
        assert store.sync_delta(
            address, AccountMeta(1, 1, other.code_hash, -1), {}, other.code
        ) == 2
        assert store.get_code(address) == other.code
        # The empty hash needs no code: the account is gone.
        assert store.sync_delta(
            address, AccountMeta(0, 0, EMPTY_CODE_HASH, -1), {99: 0}, None
        ) == 2
        assert not store.get_meta(address).exists
        assert store.get_code(address) == b"" and store.get_storage(address, 99) == 0


def test_absent_account_reads_empty(backend):
    address = to_address(0xCD)
    assert not backend.get_meta(address).exists
    assert backend.get_storage(address, 1) == 0
    assert backend.get_code(address) == b""


def test_query_stats_by_kind(backend):
    address = to_address(0xAB)
    backend.sync_account(address, Account(balance=1, code=b"\x01" * 100))
    backend.get_meta(address)
    backend.get_storage(address, 0)
    backend.get_code(address)
    stats = backend.stats
    assert stats.account_queries == 1
    assert stats.storage_queries == 1
    assert stats.code_queries == 1
    assert stats.total == 3


def test_prefetch_query_kind(backend):
    address = to_address(0xAB)
    backend.sync_account(address, Account(code=b"\x01" * 2000))
    backend.prefetch_code_page(address, 1)
    assert backend.stats.prefetch_queries == 1


def test_block_size_mismatch_rejected():
    server = OramServer(height=4, block_size=512)
    client = PathOramClient(server, key=b"x" * 32, block_size=512)
    with pytest.raises(ValueError):
        ObliviousStateBackend(client)


def test_clock_timestamps_recorded():
    server = OramServer(height=4)
    client = PathOramClient(server, key=b"x" * 32)
    now = {"t": 0.0}
    backend = ObliviousStateBackend(client, clock=lambda: now["t"])
    now["t"] = 123.0
    backend.get_meta(to_address(1))
    (record,) = backend.stats.log
    assert (record.kind, record.sim_time_us) == ("account", 123.0)
    # The log keeps the latest reads only (ROADMAP item 24).
    assert backend.stats.log.maxlen == QUERY_LOG_RECORDS


# -- prefetcher ---------------------------------------------------------------------


def test_prefetcher_spreads_pages():
    prefetcher = CodePrefetcher(Drbg(b"p"))
    prefetcher.queue_code_pages(to_address(1), 1, 5)
    assert prefetcher.pending_count == 5
    fired = prefetcher.due(100_000.0)
    assert len(fired) == 5
    times = [entry.fire_time_us for entry in fired]
    assert times == sorted(times)
    gaps = [b - a for a, b in zip(times, times[1:])]
    # Gaps are randomized around half the 630 µs starting mean gap:
    # within [0.5, 1.5) of 315 µs.
    assert all(157.5 <= gap < 472.5 for gap in gaps)


def test_prefetcher_nothing_due_before_deadline():
    prefetcher = CodePrefetcher(Drbg(b"p"))
    prefetcher.queue_code_pages(to_address(1), 0, 3)
    assert prefetcher.due(1.0) == []
    assert prefetcher.pending_count == 4


def test_prefetcher_drain_flushes_all():
    prefetcher = CodePrefetcher(Drbg(b"p"))
    prefetcher.queue_code_pages(to_address(1), 0, 9)
    fired = prefetcher.drain(now_us=0.0)
    assert len(fired) == 10
    assert prefetcher.pending_count == 0
    # Spaced by half the mean gap, which no query has moved off 630 µs.
    assert [e.fire_time_us for e in fired] == [i * 315.0 for i in range(10)]


def test_prefetcher_adapts_mean_gap():
    prefetcher = CodePrefetcher(Drbg(b"p"))
    before = prefetcher._mean_gap_us
    prefetcher.on_query(100.0)
    prefetcher.on_query(200.0)  # observed gap 100
    assert prefetcher._mean_gap_us < before


def test_prefetcher_clear():
    prefetcher = CodePrefetcher(Drbg(b"p"))
    prefetcher.queue_code_pages(to_address(1), 0, 3)
    prefetcher.clear()
    assert prefetcher.pending_count == 0


# -- encrypted (non-oblivious) store ----------------------------------------------


def test_encrypted_store_roundtrip():
    store = EncryptedKvStore(b"k" * 32)
    store.put(b"alpha", b"value-1")
    assert store.get(b"alpha") == b"value-1"
    assert store.get(b"beta") is None


def test_encrypted_store_handles_are_stable():
    store = EncryptedKvStore(b"k" * 32)
    store.put(b"alpha", b"v")
    store.get(b"alpha")
    store.get(b"alpha")
    handles = {event.handle for event in store.trace.events}
    assert len(handles) == 1  # the leak: same key -> same handle, always
