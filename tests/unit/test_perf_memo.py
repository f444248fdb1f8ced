"""Decrypt memoization: correctness, soundness, and observer-equivalence."""

import json
from pathlib import Path

import pytest

from repro.crypto.suite import (
    AcceleratedAesGcmAead,
    AesGcmAead,
    AuthenticationError,
    Blake2Aead,
)
from repro.oram import slot
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.perf.memo import MemoizedAead

KEY = b"m" * 32
BENCH_PERF = Path(__file__).resolve().parents[2] / "BENCH_perf.json"


BLOCK = 16  # payload bytes per slot in the table-level tests


def _nonce(counter: int) -> bytes:
    return counter.to_bytes(12, "big")


def _bodies(label: bytes) -> tuple[bytes, ...]:
    """Four slot bodies: one real block named ``label``, three dummies."""
    dummy = slot.encode(slot.KIND_DUMMY, b"", b"", BLOCK)
    return (slot.encode(slot.KIND_REAL, label, label, BLOCK), dummy, dummy, dummy)


def _memo(inner_factory=AcceleratedAesGcmAead, capacity_blocks=4096):
    return MemoizedAead(inner_factory(KEY), capacity_blocks, block_size=BLOCK)


def _seal(memo, counter, bodies, aad=b""):
    """What ``PathOramClient._evict`` does for one bucket: seal its slot
    bodies as one message with the bare cipher, hand the memo the wire
    blob it put on the wire."""
    nonce = _nonce(counter)
    blob = nonce + memo.inner.encrypt(nonce, b"".join(bodies), aad)
    memo.remember([(blob, aad, bodies)])
    return blob


def _flipped(blob: bytes, index: int) -> bytes:
    out = bytearray(blob)
    out[index] ^= 1
    return bytes(out)


def test_capacity_must_be_positive():
    for capacity in (0, -1, 3):
        with pytest.raises(ValueError):
            _memo(capacity_blocks=capacity)
    assert _memo(capacity_blocks=4).capacity_buckets == 1
    assert _memo().capacity_buckets == 1024  # 4096 blocks, Z = 4


def test_seal_populates_then_open_hits():
    memo = _memo()
    bodies = _bodies(b"payload")
    blob = _seal(memo, 1, bodies, b"aad")
    (opened,) = memo.open_path([(blob, b"aad")])
    assert opened is bodies  # the recorded tuple itself, no copy
    assert (memo.stats.hits, memo.stats.misses) == (1, 0)


def test_an_entry_is_used_once_then_forgotten():
    """The path just read is about to be overwritten, so its entries go;
    the same bucket served again is opened for real (and still opens)."""
    memo = _memo()
    blob = _seal(memo, 1, _bodies(b"payload"), b"aad")
    assert len(memo._live) == 1
    memo.open_path([(blob, b"aad")])
    assert len(memo._live) == 0
    assert memo.open_path([(blob, b"aad")]) == [_bodies(b"payload")]
    assert (memo.stats.hits, memo.stats.misses) == (1, 1)


def test_foreign_ciphertext_misses_and_is_not_kept():
    memo = _memo()
    nonce = _nonce(2)
    blob = nonce + AcceleratedAesGcmAead(KEY).encrypt(
        nonce, b"".join(_bodies(b"elsewhere"))
    )
    for misses in (1, 2):  # a bucket on a path being rewritten is not worth an entry
        assert memo.open_path([(blob, b"")]) == [_bodies(b"elsewhere")]
        assert (memo.stats.hits, memo.stats.misses, len(memo._live)) == (0, misses, 0)


def test_oldest_seal_goes_first_at_the_bound():
    memo = _memo(capacity_blocks=16)  # four buckets
    blobs = [_seal(memo, i, _bodies(b"pt-%d" % i)) for i in range(10)]
    assert len(memo._live) == 4
    assert (memo.stats.inserts, memo.stats.evictions) == (10, 6)
    # The six oldest were pushed out: opening one is a miss, and right.
    assert memo.open_path([(blobs[0], b"")]) == [_bodies(b"pt-0")]
    assert memo.open_path([(blobs[9], b"")]) == [_bodies(b"pt-9")]
    assert (memo.stats.hits, memo.stats.misses) == (1, 1)


def test_tampered_ciphertext_misses_cache_and_rejects():
    """Soundness: a hit needs the whole bucket byte-equal, so a flipped
    byte anywhere — nonce, any slot's body or tag — falls through to
    real decryption, which rejects it; the honest bucket still hits
    after."""
    memo = _memo(AesGcmAead)
    blob = _seal(memo, 3, _bodies(b"secret"), b"aad")
    body = slot.body_bytes(BLOCK)
    positions = [0, 11, 12, 12 + body, 12 + 3 * body, -17, -16, -1]
    for index in positions:
        with pytest.raises(AuthenticationError):
            memo.open_path([(_flipped(blob, index), b"aad")])
    assert (memo.stats.hits, memo.stats.misses, len(memo._live)) == (0, len(positions), 1)
    assert memo.open_path([(blob, b"aad")]) == [_bodies(b"secret")]
    assert memo.stats.hits == 1


def test_a_replay_under_a_moved_version_misses_and_rejects():
    """The recorded AAD must equal the one pinned now: a byte-identical
    bucket replayed after its node's version moved on is not a hit."""
    memo = _memo(AesGcmAead)
    blob = _seal(memo, 3, _bodies(b"secret"), b"version-1")
    with pytest.raises(AuthenticationError):
        memo.open_path([(blob, b"version-2")])
    assert (memo.stats.hits, memo.stats.misses) == (0, 1)


def test_open_blocks_serves_hits_and_batches_misses():
    memo = _memo()
    known = _seal(memo, 4, _bodies(b"known"), b"a")
    foreign = _nonce(5) + AcceleratedAesGcmAead(KEY).encrypt(
        _nonce(5), b"".join(_bodies(b"foreign")), b"b"
    )
    assert memo.open_path([(known, b"a"), (foreign, b"b")]) == [
        _bodies(b"known"), _bodies(b"foreign")
    ]
    assert (memo.stats.hits, memo.stats.misses) == (1, 1)


def test_open_blocks_bad_tag_raises_before_returning():
    """A failed open forgets nothing: the access changed no client state
    and the server still holds the buckets, so the retry hits them all."""
    memo = _memo(AesGcmAead)
    good = [(_seal(memo, 6 + i, _bodies(b"fine-%d" % i)), b"") for i in range(3)]
    bad = (_flipped(good[1][0], -1), b"")
    with pytest.raises(AuthenticationError):
        memo.open_path([good[0], bad, good[2]])
    assert len(memo._live) == 3
    assert memo.open_path(good) == [_bodies(b"fine-%d" % i) for i in range(3)]
    assert (memo.stats.hits, memo.stats.misses, len(memo._live)) == (5, 1, 0)


def test_the_same_blob_twice_in_one_read_hits_twice():
    """The bare cipher opens one authentic bucket under one AAD as often
    as it is served, so the table answers for it as often too."""
    memo = _memo()
    blob = _seal(memo, 9, _bodies(b"twice"), b"a")
    assert memo.open_path([(blob, b"a"), (blob, b"a")]) == [_bodies(b"twice")] * 2
    assert (memo.stats.hits, len(memo._live)) == (2, 0)


def _run_oram(memo_blocks, cipher_factory=AcceleratedAesGcmAead, block_size=64,
              accesses=60):
    server = OramServer(height=4, block_size=block_size)
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
    buckets = server.snapshot_tree()
    return reads, events, buckets, client


@pytest.mark.parametrize("plain_factory, memo_factory, shape", [
    pytest.param(Blake2Aead, Blake2Aead, {}, id="Blake2Aead"),
    pytest.param(AesGcmAead, AesGcmAead, {}, id="AesGcmAead"),
    # The two AES-GCMs against each other, at the page size perf-bench
    # digests: OpenSSL without a memo vs the pure-Python cipher behind
    # one.
    pytest.param(
        AcceleratedAesGcmAead, AesGcmAead, {"block_size": 1024, "accesses": 24},
        id="AcceleratedAesGcmAead-vs-AesGcmAead-1KB",
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
    # Steady state: all 5 buckets of the path were sealed by this client
    # and are still the server's, so every one is a hit.
    last = client.last_access
    assert (last.memo_hits, last.memo_misses) == (5, 0)

    _, _, _, plain_client = _run_oram(None)
    assert plain_client.last_access.memo_hits == 0
    assert plain_client.last_access.memo_misses == 0


def test_a_logical_content_digest_leaves_the_memo_alone():
    """``logical_content`` opens every blob of the tree; it does so past
    the memo, so the accesses after a digest hit and count as they would
    have without one."""
    def run(digest_midway):
        server = OramServer(height=4, block_size=64)
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
    """A server frontend that corrupts one bucket of its next path read."""

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
            buckets[node] = _flipped(buckets[node], 20)
        return buckets


def test_a_retry_after_a_corrupted_read_still_hits():
    server = _FlipOnce(OramServer(height=4, block_size=64))
    client = PathOramClient(server, KEY, block_size=64)
    for i in range(30):
        client.write(b"blk-%d" % (i % 7), b"v%d" % i)
    entries, hits = len(client.memo._live), client.memo.stats.hits
    position = client._positions.get(b"blk-3")
    server.armed = True
    with pytest.raises(AuthenticationError):
        client.read(b"blk-3")
    # 4 honest buckets matched, the corrupted one went to the cipher and
    # failed there; nothing was forgotten and no client state moved.
    assert len(client.memo._live) == entries
    assert client.memo.stats.hits == hits + 4
    assert client._positions.get(b"blk-3") == position
    assert client.read(b"blk-3").rstrip(b"\x00") == b"v24"
    assert (client.last_access.memo_hits, client.last_access.memo_misses) == (5, 0)


def test_every_dummy_slot_the_table_holds_is_one_object():
    """The table keeps slot bodies, not joined plaintexts, so the dummy
    body is shared by every entry: a full table costs about the
    ciphertexts the server already holds, not a second copy of them."""
    _, _, _, client = _run_oram(4096, block_size=1024)
    entries = list(client.memo._live.values())
    assert len(entries) == 31  # every bucket of the height-4 tree is live
    dummies = {
        id(body) for _blob, _aad, bodies in entries for body in bodies
        if body[0] == slot.KIND_DUMMY
    }
    assert dummies == {id(client._dummy)}


# The perf-bench access sequence under perf-bench's key.  4096 blocks
# (1,024 buckets) is BENCH_perf.json's configuration: 234 hits / 0
# misses, one per bucket opened.  The 64-block case (16 buckets) makes
# the bound push seals out.  Inserts are seals only (288 = 48 accesses
# x 6 buckets; an opened miss is on a path being rewritten and is not
# kept).  Re-pinned on purpose when a bucket became one AES-GCM
# message: the per-slot table counted 936 / 0 and 636 / 300 over 1,152
# slot seals.
@pytest.mark.parametrize(
    "capacity,expected",
    [
        (4096, (234, 0, 288, 0)),
        (64, (159, 75, 288, 113)),
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
    # The memo is invisible on the wire: same ciphertext tree either way,
    # and the default client's tree is perf-bench's, whose cipher is the
    # pure-Python AES-GCM oracle — one tree, pinned in one file.
    digests = json.loads(BENCH_PERF.read_text())["oram"]["digests"]
    assert _digest_server(server) == digests["server_buckets"]
