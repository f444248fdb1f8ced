"""Decrypt memoization: correctness, soundness, and observer-equivalence."""

import pytest

from repro.crypto.suite import AesGcmAead, AuthenticationError, Blake2Aead
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.perf.memo import MemoizedAead
from repro.perf.reference import ReferenceAesGcm

KEY = b"m" * 32


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        MemoizedAead(Blake2Aead(KEY), capacity_blocks=0)
    with pytest.raises(ValueError):
        MemoizedAead(Blake2Aead(KEY), capacity_blocks=-1)


def test_seal_populates_then_open_hits():
    memo = MemoizedAead(Blake2Aead(KEY))
    nonce = (1).to_bytes(12, "big")
    sealed = memo.encrypt(nonce, b"payload", b"aad")
    assert memo.decrypt(nonce, sealed, b"aad") == b"payload"
    assert memo.stats.hits == 1
    assert memo.stats.misses == 0


def test_foreign_ciphertext_misses_then_caches():
    inner = Blake2Aead(KEY)
    memo = MemoizedAead(Blake2Aead(KEY))
    nonce = (2).to_bytes(12, "big")
    sealed = inner.encrypt(nonce, b"from elsewhere")
    assert memo.decrypt(nonce, sealed) == b"from elsewhere"
    assert (memo.stats.hits, memo.stats.misses) == (0, 1)
    assert memo.decrypt(nonce, sealed) == b"from elsewhere"
    assert (memo.stats.hits, memo.stats.misses) == (1, 1)


def test_lru_eviction_is_bounded():
    memo = MemoizedAead(Blake2Aead(KEY), capacity_blocks=4)
    for i in range(10):
        memo.encrypt(i.to_bytes(12, "big"), b"pt-%d" % i)
    assert len(memo) == 4
    assert memo.stats.evictions == 6
    # The oldest entries were evicted: decrypting them is a miss.
    sealed0 = Blake2Aead(KEY).encrypt((0).to_bytes(12, "big"), b"pt-0")
    memo.decrypt((0).to_bytes(12, "big"), sealed0)
    assert memo.stats.misses == 1


def test_tampered_ciphertext_misses_cache_and_rejects():
    """Soundness: any tampered byte changes the cache key, so the lookup
    falls through to real decryption, which rejects it."""
    memo = MemoizedAead(AesGcmAead(KEY))
    nonce = (3).to_bytes(12, "big")
    sealed = bytearray(memo.encrypt(nonce, b"secret", b"aad"))
    sealed[0] ^= 1
    with pytest.raises(AuthenticationError):
        memo.decrypt(nonce, bytes(sealed), b"aad")
    # Replay under a different AAD (stale bucket version) also misses.
    good = memo.encrypt(nonce, b"secret", b"version-1")
    with pytest.raises(AuthenticationError):
        memo.decrypt(nonce, good, b"version-2")


def test_open_blocks_serves_hits_and_batches_misses():
    inner = Blake2Aead(KEY)
    memo = MemoizedAead(Blake2Aead(KEY))
    known_nonce = (4).to_bytes(12, "big")
    known = memo.encrypt(known_nonce, b"known", b"a")
    foreign_nonce = (5).to_bytes(12, "big")
    foreign = inner.encrypt(foreign_nonce, b"foreign", b"b")
    out = memo.open_blocks([
        (known_nonce, known, b"a"),
        (foreign_nonce, foreign, b"b"),
    ])
    assert out == [b"known", b"foreign"]
    assert (memo.stats.hits, memo.stats.misses) == (1, 1)


def test_open_blocks_bad_tag_raises_before_returning():
    memo = MemoizedAead(AesGcmAead(KEY))
    nonce = (6).to_bytes(12, "big")
    good = memo.encrypt(nonce, b"fine")
    memo.clear()
    bad = bytearray(good)
    bad[-1] ^= 1
    with pytest.raises(AuthenticationError):
        memo.open_blocks([
            (nonce, good, b""),
            (nonce, bytes(bad), b""),
        ])


def _run_oram(memo_blocks, cipher_factory=Blake2Aead, block_size=64,
              accesses=60):
    server = OramServer(height=4)
    events = []
    server.add_observer(events.append)
    client = PathOramClient(
        server, KEY, block_size=block_size, cipher_factory=cipher_factory,
        decrypt_memo_blocks=memo_blocks,
    )
    reads = []
    for i in range(accesses):
        key = b"blk-%d" % (i % 11)
        if i % 4 == 0:
            client.write(key, b"v%d" % i)
        else:
            reads.append(client.read(key))
    buckets = [bytes().join(bucket) for bucket in server._buckets]
    return reads, events, buckets, client


@pytest.mark.parametrize("plain_factory, memo_factory, shape", [
    pytest.param(Blake2Aead, Blake2Aead, {}, id="Blake2Aead"),
    pytest.param(AesGcmAead, AesGcmAead, {}, id="AesGcmAead"),
    # The pre-optimization substrate against today's, at the page size
    # perf-bench digests: frozen block-at-a-time AES-GCM without a memo
    # vs the batch AES-GCM behind one.
    pytest.param(
        ReferenceAesGcm, AesGcmAead, {"block_size": 1024, "accesses": 24},
        id="ReferenceAesGcm-vs-AesGcmAead-1KB",
    ),
])
def test_memoized_oram_is_observer_equivalent(plain_factory, memo_factory, shape):
    """The property the docs promise: with and without memoization, the
    client returns identical plaintexts AND the SP observes an identical
    PathAccessEvent stream and identical ciphertext tree."""
    reads_off, events_off, buckets_off, _ = _run_oram(
        None, plain_factory, **shape
    )
    reads_on, events_on, buckets_on, client = _run_oram(
        4096, memo_factory, **shape
    )
    assert reads_on == reads_off
    assert events_on == events_off  # slots dataclass, field-wise equality
    assert buckets_on == buckets_off
    assert client.memo is not None and client.memo.stats.hits > 0


def test_access_summary_reports_memo_deltas():
    _, _, _, client = _run_oram(4096)
    last = client.last_access
    assert last.memo_hits + last.memo_misses > 0
    # Steady state: every slot on the path was sealed by this client.
    assert last.memo_misses == 0

    _, _, _, plain_client = _run_oram(None)
    assert plain_client.last_access.memo_hits == 0
    assert plain_client.last_access.memo_misses == 0


# Pinned at the commit before the batch paths were fused (PR 19): the
# perf-bench access sequence under perf-bench's key.  4096 entries is
# BENCH_perf.json's configuration (its 936 hits / 0 misses); 64 entries
# makes the LRU evict, so order and eviction counts are exercised too.
# The last field digests the cache keys in LRU order.
@pytest.mark.parametrize(
    "capacity,expected",
    [
        (4096, (936, 0, 1152, 0, "392950dec22648c2")),
        (64, (476, 460, 1612, 1548, "2abdb31952ad7086")),
    ],
)
def test_replayed_access_sequence_has_the_pinned_memo_behaviour(capacity, expected):
    import hashlib

    from repro.perf.bench import PerfBenchConfig, _digest_server, _workload

    config = PerfBenchConfig()
    key = hashlib.blake2b(
        config.seed.to_bytes(8, "big"), digest_size=32, person=b"perf-key"
    ).digest()
    server = OramServer(height=config.oram_height)
    client = PathOramClient(server, key, decrypt_memo_blocks=capacity)
    for access_key, payload in _workload(config):
        client.access(access_key, payload)
    stats = client.memo.stats
    lru_order = hashlib.sha256(b"".join(client.memo._cache)).hexdigest()[:16]
    assert (
        stats.hits, stats.misses, stats.inserts, stats.evictions, lru_order
    ) == expected
    # The memo is invisible on the wire: same ciphertext tree either way.
    assert _digest_server(server) == "9adc75e48911f1616c67d35a20c44d37"
