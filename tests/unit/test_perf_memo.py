"""Decrypt memoization: correctness, soundness, and observer-equivalence."""

import pytest

from repro.crypto.suite import AesGcmAead, AuthenticationError, Blake2Aead
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.perf.memo import MemoizedAead
from repro.perf.reference import ReferenceAesGcm

KEY = b"m" * 32


def _nonce(counter: int) -> bytes:
    return counter.to_bytes(12, "big")


def _seal(memo, counter, plaintext, aad=b""):
    """What ``PathOramClient._evict`` does for one slot: seal with the
    bare cipher, hand the memo the wire blob it put on the wire."""
    nonce = _nonce(counter)
    blob = nonce + memo.inner.encrypt(nonce, plaintext, aad)
    memo.remember([(nonce, plaintext, aad)], [blob])
    return blob


def _flipped(blob: bytes, index: int) -> bytes:
    out = bytearray(blob)
    out[index] ^= 1
    return bytes(out)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        MemoizedAead(Blake2Aead(KEY), capacity_blocks=0)
    with pytest.raises(ValueError):
        MemoizedAead(Blake2Aead(KEY), capacity_blocks=-1)


def test_seal_populates_then_open_hits():
    memo = MemoizedAead(Blake2Aead(KEY))
    blob = _seal(memo, 1, b"payload", b"aad")
    assert memo.open_path([(blob, b"aad")]) == [b"payload"]
    assert (memo.stats.hits, memo.stats.misses) == (1, 0)


def test_an_entry_is_used_once_then_forgotten():
    """The path just read is about to be overwritten, so its entries go;
    the same blob served again is opened for real (and still opens)."""
    memo = MemoizedAead(Blake2Aead(KEY))
    blob = _seal(memo, 1, b"payload", b"aad")
    assert len(memo._live) == 1
    memo.open_path([(blob, b"aad")])
    assert len(memo._live) == 0
    assert memo.open_path([(blob, b"aad")]) == [b"payload"]
    assert (memo.stats.hits, memo.stats.misses) == (1, 1)


def test_foreign_ciphertext_misses_and_is_not_kept():
    memo = MemoizedAead(Blake2Aead(KEY))
    nonce = _nonce(2)
    blob = nonce + Blake2Aead(KEY).encrypt(nonce, b"from elsewhere")
    for misses in (1, 2):  # a blob on a path being rewritten is not worth an entry
        assert memo.open_path([(blob, b"")]) == [b"from elsewhere"]
        assert (memo.stats.hits, memo.stats.misses, len(memo._live)) == (0, misses, 0)


def test_oldest_seal_goes_first_at_the_bound():
    memo = MemoizedAead(Blake2Aead(KEY), capacity_blocks=4)
    blobs = [_seal(memo, i, b"pt-%d" % i) for i in range(10)]
    assert len(memo._live) == 4
    assert (memo.stats.inserts, memo.stats.evictions) == (10, 6)
    # The six oldest were pushed out: opening one is a miss, and right.
    assert memo.open_path([(blobs[0], b"")]) == [b"pt-0"]
    assert memo.open_path([(blobs[9], b"")]) == [b"pt-9"]
    assert (memo.stats.hits, memo.stats.misses) == (1, 1)


def test_tampered_ciphertext_misses_cache_and_rejects():
    """Soundness: a hit needs the whole blob byte-equal, so a flipped
    byte anywhere — nonce, body or tag — falls through to real
    decryption, which rejects it; the honest blob still hits after."""
    memo = MemoizedAead(AesGcmAead(KEY))
    blob = _seal(memo, 3, b"secret", b"aad")
    positions = [0, 11, 12, 15, -16, -1]
    for index in positions:
        with pytest.raises(AuthenticationError):
            memo.open_path([(_flipped(blob, index), b"aad")])
    assert (memo.stats.hits, memo.stats.misses, len(memo._live)) == (0, len(positions), 1)
    assert memo.open_path([(blob, b"aad")]) == [b"secret"]
    assert memo.stats.hits == 1


def test_a_replay_under_a_moved_version_misses_and_rejects():
    """The recorded AAD must equal the one pinned now: a byte-identical
    bucket replayed after its node's version moved on is not a hit."""
    memo = MemoizedAead(AesGcmAead(KEY))
    blob = _seal(memo, 3, b"secret", b"version-1")
    with pytest.raises(AuthenticationError):
        memo.open_path([(blob, b"version-2")])
    assert (memo.stats.hits, memo.stats.misses) == (0, 1)


def test_open_blocks_serves_hits_and_batches_misses():
    memo = MemoizedAead(Blake2Aead(KEY))
    known = _seal(memo, 4, b"known", b"a")
    foreign = _nonce(5) + Blake2Aead(KEY).encrypt(_nonce(5), b"foreign", b"b")
    assert memo.open_path([(known, b"a"), (foreign, b"b")]) == [b"known", b"foreign"]
    assert (memo.stats.hits, memo.stats.misses) == (1, 1)


def test_open_blocks_bad_tag_raises_before_returning():
    """A failed open forgets nothing: the access changed no client state
    and the server still holds the blobs, so the retry hits them all."""
    memo = MemoizedAead(AesGcmAead(KEY))
    good = [(_seal(memo, 6 + i, b"fine-%d" % i), b"") for i in range(3)]
    bad = (_flipped(good[1][0], -1), b"")
    with pytest.raises(AuthenticationError):
        memo.open_path([good[0], bad, good[2]])
    assert len(memo._live) == 3
    assert memo.open_path(good) == [b"fine-0", b"fine-1", b"fine-2"]
    assert (memo.stats.hits, memo.stats.misses, len(memo._live)) == (5, 1, 0)


def test_the_same_blob_twice_in_one_read_hits_twice():
    """AEAD binds a slot to its bucket, not to its place in it: the bare
    cipher accepts a bucket holding one authentic blob twice, so must we."""
    memo = MemoizedAead(Blake2Aead(KEY))
    blob = _seal(memo, 9, b"twice", b"a")
    assert memo.open_path([(blob, b"a"), (blob, b"a")]) == [b"twice", b"twice"]
    assert (memo.stats.hits, len(memo._live)) == (2, 0)


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
    # Steady state: all 5 buckets x 4 slots of the path were sealed by
    # this client and are still the server's, so every one is a hit.
    last = client.last_access
    assert (last.memo_hits, last.memo_misses) == (20, 0)

    _, _, _, plain_client = _run_oram(None)
    assert plain_client.last_access.memo_hits == 0
    assert plain_client.last_access.memo_misses == 0


def test_a_logical_content_digest_leaves_the_memo_alone():
    """``logical_content`` opens every blob of the tree; it does so past
    the memo, so the accesses after a digest hit and count as they would
    have without one."""
    def run(digest_midway):
        server = OramServer(height=4)
        client = PathOramClient(server, KEY, block_size=64)
        seen = []
        for i in range(40):
            if digest_midway and i == 20:
                before = (vars(client.memo.stats).copy(), dict(client.memo._live))
                content = client.logical_content(server)
                assert content[b"blk-3"].rstrip(b"\x00").startswith(b"v")
                assert (vars(client.memo.stats), client.memo._live) == before
            client.write(b"blk-%d" % (i % 7), b"v%d" % i)
            seen.append((client.last_access.memo_hits, client.last_access.memo_misses))
        return seen, vars(client.memo.stats), list(client.memo._live)

    assert run(digest_midway=True) == run(digest_midway=False)


class _FlipOnce:
    """A server frontend that corrupts one blob of its next path read."""

    def __init__(self, inner):
        self._inner = inner
        self.armed = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def read_path(self, leaf, sim_time_us=0.0):
        buckets = self._inner.read_path(leaf, sim_time_us)
        if self.armed:
            self.armed = False
            node = max(buckets)
            buckets[node] = [_flipped(buckets[node][0], 20)] + buckets[node][1:]
        return buckets


def test_a_retry_after_a_corrupted_read_still_hits():
    server = _FlipOnce(OramServer(height=4))
    client = PathOramClient(server, KEY, block_size=64)
    for i in range(30):
        client.write(b"blk-%d" % (i % 7), b"v%d" % i)
    entries, hits = len(client.memo._live), client.memo.stats.hits
    position = client._positions.get(b"blk-3")
    server.armed = True
    with pytest.raises(AuthenticationError):
        client.read(b"blk-3")
    # 19 honest blobs matched, the corrupted one went to the cipher and
    # failed there; nothing was forgotten and no client state moved.
    assert len(client.memo._live) == entries
    assert client.memo.stats.hits == hits + 19
    assert client._positions.get(b"blk-3") == position
    assert client.read(b"blk-3").rstrip(b"\x00") == b"v24"
    assert (client.last_access.memo_hits, client.last_access.memo_misses) == (20, 0)


# The perf-bench access sequence under perf-bench's key.  4096 entries
# is BENCH_perf.json's configuration (its 936 hits / 0 misses, as at the
# commit before the batch paths were fused, PR 19).  The 64-entry case
# makes the bound push seals out and was re-pinned on purpose in PR 24:
# 476 -> 636 hits, because the 64 entries are now the 64 newest blobs
# *still on the server* — the digest-keyed LRU spent most of them on
# ciphertexts the same access had just overwritten — and inserts are
# seals only (1,152 = 48 accesses x 24 slots; an opened miss is on a
# path being rewritten and is not kept).
@pytest.mark.parametrize(
    "capacity,expected",
    [
        (4096, (936, 0, 1152, 0)),
        (64, (636, 300, 1152, 452)),
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
    assert (stats.hits, stats.misses, stats.inserts, stats.evictions) == expected
    # The memo is invisible on the wire: same ciphertext tree either way.
    assert _digest_server(server) == "9adc75e48911f1616c67d35a20c44d37"
