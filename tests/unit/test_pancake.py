"""PANCAKE-style frequency smoothing and the distribution-shift attack."""

import pytest

from repro.crypto.kdf import Drbg
from repro.oram.pancake import (
    FrequencySmoothedStore,
    rate_deviation_attack,
)
from repro.security.analysis import frequency_attack

KEYS = [b"k%d" % i for i in range(4)]
# Assumed (calibration) distribution: 8:4:2:1.
ASSUMED = {KEYS[0]: 8.0, KEYS[1]: 4.0, KEYS[2]: 2.0, KEYS[3]: 1.0}


@pytest.fixture
def store():
    s = FrequencySmoothedStore(b"p" * 32, ASSUMED, rng=Drbg(b"t"))
    for key in KEYS:
        s.put(key, b"value-" + key)
    s.trace.clear()
    return s


def test_replica_counts_proportional(store):
    assert store.replica_count(KEYS[0]) == 8
    assert store.replica_count(KEYS[1]) == 4
    assert store.replica_count(KEYS[2]) == 2
    assert store.replica_count(KEYS[3]) == 1
    assert store.total_replicas == 15


def test_roundtrip(store):
    for key in KEYS:
        assert store.get(key) == b"value-" + key


def test_unknown_key_rejected(store):
    with pytest.raises(KeyError):
        store.get(b"unknown")
    with pytest.raises(KeyError):
        store.put(b"unknown", b"v")


def test_batch_padding(store):
    store.get(KEYS[0])
    assert len(store.trace) == store.batch_size


def test_calibrated_workload_smooths(store):
    """Querying per the assumed distribution → near-uniform replicas."""
    rng = Drbg(b"w")
    weights = [8, 4, 2, 1]
    for _ in range(3000):
        point = rng.randint(15)
        cumulative = 0
        for key, weight in zip(KEYS, weights):
            cumulative += weight
            if point < cumulative:
                store.get(key)
                break
    counts = store.observed_counts()
    expected = sum(counts.values()) / store.total_replicas
    for handle, count in counts.items():
        assert count < 1.5 * expected, "calibrated store must look uniform"
    # And frequency analysis cannot pick the hot plaintext key.
    assert rate_deviation_attack(counts, store.total_replicas) == set()


def test_frequency_attack_fails_when_calibrated(store):
    rng = Drbg(b"w2")
    weights = [8, 4, 2, 1]
    for _ in range(2000):
        point = rng.randint(15)
        cumulative = 0
        for key, weight in zip(KEYS, weights):
            cumulative += weight
            if point < cumulative:
                store.get(key)
                break
    handles = [event.handle for event in store.trace]
    # The most frequent handle should NOT reliably be a replica of k0.
    accuracy = frequency_attack(handles, store.replicas_of(KEYS[0])[:1])
    assert accuracy == 0.0 or accuracy < 0.5


def test_distribution_shift_breaks_smoothing(store):
    """The paper's point: shift the real distribution, smoothing fails."""
    # The victim suddenly cares only about k3 (calibrated as the coldest).
    for _ in range(1500):
        store.get(KEYS[3])
    hot = rate_deviation_attack(store.observed_counts(), store.total_replicas)
    victim_replicas = set(store.replicas_of(KEYS[3]))
    assert hot & victim_replicas, "the shifted key's replicas must run hot"
    # The identified handles map straight back to the victim's key.
    assert hot <= victim_replicas | set(), (
        "only the victim's replicas should cross the threshold"
    )


def test_oram_resists_the_same_shift():
    """Control: Path ORAM under the identical shifted workload."""
    from repro.oram.client import PathOramClient
    from repro.oram.server import OramServer
    from repro.security.observer import AccessPatternObserver

    server = OramServer(height=7, block_size=64)
    observer = AccessPatternObserver().attach(server)
    client = PathOramClient(server, key=b"o" * 32, block_size=64, rng=Drbg(b"c"))
    for key in KEYS:
        client.write(key, b"v")
    observer.clear()
    for _ in range(300):
        client.read(KEYS[3])
    counts: dict[bytes, int] = {}
    for leaf in observer.leaves:
        handle = leaf.to_bytes(4, "big")
        counts[handle] = counts.get(handle, 0) + 1
    hot = rate_deviation_attack(counts, server.leaf_count, threshold=3.0)
    # Uniform random leaves: no stable handle crosses a 3x threshold
    # with 300 draws over 128 leaves beyond small-sample noise, and more
    # importantly none of them persists as "the victim's page".
    assert len(hot) < server.leaf_count * 0.1
