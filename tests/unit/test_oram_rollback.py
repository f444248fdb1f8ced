"""ORAM integrity hardening: tamper and rollback detection.

The second half drives the same client against *injected* mid-access
server failures (``repro.faults``): stalls past the response budget and
transient tag corruption.  The property under test is atomicity — a
failed access must leave the client's trust state (stash, position map,
anti-rollback versions) exactly as it was, so a retry is always safe.
"""

import pytest

from repro.crypto.kdf import Drbg
from repro.crypto.suite import AuthenticationError
from repro.faults.injector import FaultInjector, FaultyOramServer
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.oram.client import OramTimeoutError, PathOramClient, RollbackDetectedError
from repro.oram.server import OramServer


@pytest.fixture
def oram():
    server = OramServer(height=5, block_size=64)
    client = PathOramClient(server, key=b"k" * 32, block_size=64, rng=Drbg(b"r"))
    return server, client


def test_tampered_bucket_detected(oram):
    server, client = oram
    client.write(b"key", b"value")
    # The SP flips a byte in some stored ciphertext.
    tree = server.snapshot_tree()
    for node, bucket in enumerate(tree):
        if bucket:
            blob = bytearray(bucket)
            blob[-1] ^= 1
            tree[node] = bytes(blob)
            break
    server.restore_tree(tree)
    with pytest.raises(AuthenticationError):
        for _ in range(64):  # touch enough paths to hit the bad bucket
            client.read(b"key")


def test_rollback_of_bucket_detected(oram):
    """Replaying an older, individually valid bucket is classified as a
    rollback — a typed error distinct from plain tag corruption."""
    server, client = oram
    client.write(b"key", b"v1")
    # SP snapshots the entire tree now...
    snapshot = server.snapshot_tree()
    # ...the client keeps writing (versions advance)...
    client.write(b"key", b"v2")
    client.write(b"other", b"x")
    # ...and the SP rolls the tree back to the stale snapshot.
    server.restore_tree(snapshot)
    with pytest.raises(RollbackDetectedError) as excinfo:
        for _ in range(64):
            client.read(b"key")
    assert excinfo.value.served_version < excinfo.value.expected_version
    assert client.stats.rollbacks_detected == 1
    # The typed error must never be mistaken for (retryable) corruption.
    assert not isinstance(excinfo.value, AuthenticationError)


def test_swapping_buckets_between_nodes_detected(oram):
    """Moving a valid bucket to a different tree position fails (the
    node index is part of the AAD)."""
    server, client = oram
    client.write(b"key", b"value")
    tree = server.snapshot_tree()
    populated = [i for i, bucket in enumerate(tree) if bucket]
    if len(populated) >= 2:
        a, b = populated[0], populated[1]
        tree[a], tree[b] = tree[b], tree[a]
        server.restore_tree(tree)
        with pytest.raises(AuthenticationError):
            for _ in range(64):
                client.read(b"key")


def test_honest_server_unaffected(oram):
    """The versioning is invisible when the server behaves."""
    server, client = oram
    for i in range(40):
        client.write(b"key%d" % (i % 10), b"v%d" % i)
    for i in range(10):
        value = client.read(b"key%d" % i)
        assert value is not None


# ----------------------------------------------------------------------
# Injected mid-access server failures (repro.faults)
# ----------------------------------------------------------------------


def _client_state(client):
    """The trust state a failed access must leave untouched."""
    return (
        dict(client._stash),
        dict(client._positions),
        dict(client._node_versions),
    )


def _armed(server, rule, seed=11):
    return FaultyOramServer(server, FaultInjector(FaultPlan(seed, [rule])))


def test_injected_stall_past_budget_times_out_atomically():
    server = OramServer(height=5, block_size=64)
    client = PathOramClient(
        server, key=b"k" * 32, block_size=64, rng=Drbg(b"r"),
        response_budget_us=10_000.0,
    )
    client.write(b"key", b"value")
    before = _client_state(client)
    # Two 8 ms stalls against a 10 ms budget: the first is absorbed, the
    # second pushes the accumulated wait past the budget.
    client.server = _armed(
        server,
        FaultRule(FaultKind.ORAM_STALL, rate=1.0, max_fires=2, stall_us=8_000.0),
    )
    with pytest.raises(OramTimeoutError) as excinfo:
        client.read(b"key")
    assert excinfo.value.budget_us == 10_000.0
    assert excinfo.value.waited_us == 16_000.0
    assert client.stats.stalls_absorbed == 1
    assert client.stats.timeouts == 1
    # The timed-out access changed nothing...
    assert _client_state(client) == before
    # ...so with the fault budget exhausted the plain retry succeeds.
    assert client.read(b"key").rstrip(b"\x00") == b"value"


def test_injected_stall_within_budget_is_absorbed():
    server = OramServer(height=5, block_size=64)
    client = PathOramClient(
        server, key=b"k" * 32, block_size=64, rng=Drbg(b"r"),
        response_budget_us=50_000.0,
    )
    client.write(b"key", b"value")
    client.server = _armed(
        server,
        FaultRule(FaultKind.ORAM_STALL, rate=1.0, max_fires=1, stall_us=8_000.0),
    )
    assert client.read(b"key").rstrip(b"\x00") == b"value"
    assert client.stats.stalls_absorbed == 1
    assert client.stats.stall_us_absorbed == 8_000.0
    assert client.stats.timeouts == 0


def test_injected_tag_corruption_aborts_access_atomically():
    server = OramServer(height=5, block_size=64)
    client = PathOramClient(server, key=b"k" * 32, block_size=64, rng=Drbg(b"r"))
    for i in range(8):
        client.write(b"key%d" % i, b"v%d" % i)
    before = _client_state(client)
    client.server = _armed(
        server, FaultRule(FaultKind.ORAM_TAG_CORRUPT, rate=1.0, max_fires=1)
    )
    with pytest.raises(AuthenticationError):
        client.read(b"key0")
    # Absorption is all-or-nothing: the corrupt path left no partial
    # stash/position/version state behind.
    assert _client_state(client) == before
    # The corruption hit the returned copy only (a transient bus error,
    # not stored damage), so the retry reads the true value.
    assert client.read(b"key0").rstrip(b"\x00") == b"v0"


def test_retry_backoff_counts_toward_budget_and_waited_us():
    """The wait between re-issued reads is real caller-observed time: it
    must appear in ``waited_us``, count against the response budget, and
    charge the owning clock — not vanish into unaccounted limbo."""
    from repro.hardware.timing import SimClock

    server = OramServer(height=5, block_size=64)
    clock = SimClock()
    client = PathOramClient(
        server, key=b"k" * 32, block_size=64, rng=Drbg(b"r"),
        response_budget_us=10_000.0,
        clock=clock, stall_retry_backoff_us=500.0,
    )
    client.write(b"key", b"value")
    started = clock.now_us
    client.server = _armed(
        server,
        FaultRule(FaultKind.ORAM_STALL, rate=1.0, max_fires=2, stall_us=8_000.0),
    )
    with pytest.raises(OramTimeoutError) as excinfo:
        client.read(b"key")
    # First stall (8 ms) absorbed + 0.5 ms backoff, second stall breaches:
    # waited = 8_000 + 500 + 8_000, all of it charged to the clock.
    assert excinfo.value.waited_us == 16_500.0
    assert clock.now_us - started == 16_500.0
    assert client.stats.stalls_absorbed == 1
    assert client.stats.timeouts == 1


def test_absorbed_stalls_charge_the_clock():
    from repro.hardware.timing import SimClock

    server = OramServer(height=5, block_size=64)
    clock = SimClock()
    client = PathOramClient(
        server, key=b"k" * 32, block_size=64, rng=Drbg(b"r"),
        response_budget_us=50_000.0,
        clock=clock, stall_retry_backoff_us=250.0,
    )
    client.write(b"key", b"value")
    started = clock.now_us
    client.server = _armed(
        server,
        FaultRule(FaultKind.ORAM_STALL, rate=1.0, max_fires=1, stall_us=8_000.0),
    )
    assert client.read(b"key").rstrip(b"\x00") == b"value"
    assert clock.now_us - started == 8_250.0  # stall + backoff, nothing else


def test_faulty_wrapper_is_transparent_at_zero_rate(oram):
    server, client = oram
    client.write(b"key", b"value")
    plan = FaultPlan(11, [FaultRule(FaultKind.ORAM_STALL, rate=0.0)])
    client.server = FaultyOramServer(server, FaultInjector(plan))
    assert client.read(b"key").rstrip(b"\x00") == b"value"
    # Zero-rate rules never even draw: the baseline stays bit-for-bit.
    assert plan.decisions(FaultKind.ORAM_STALL) == 0
    assert plan.total_injected == 0
