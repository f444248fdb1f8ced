"""Unit tests for the consistent-hash ring (repro.sharding.ring)."""

import pytest

from repro.sharding.errors import RingConfigurationError
from repro.sharding.ring import ConsistentHashRing

pytestmark = pytest.mark.sharding


def _keys(n: int) -> list[bytes]:
    return [b"page-%06d" % i for i in range(n)]


def test_ring_is_deterministic_and_seed_scoped():
    a = ConsistentHashRing(range(4))
    b = ConsistentHashRing(range(4))
    assert [a.shard_for(k) for k in _keys(200)] == [
        b.shard_for(k) for k in _keys(200)
    ]
    other = ConsistentHashRing(range(4), seed=b"other-deployment")
    assert [other.shard_for(k) for k in _keys(200)] != [
        a.shard_for(k) for k in _keys(200)
    ]


def test_every_shard_owns_keys():
    ring = ConsistentHashRing(range(8), vnodes=128)
    counts = ring.assignment_counts(_keys(2000))
    assert set(counts) == set(range(8))
    assert all(count > 0 for count in counts.values())
    assert sum(counts.values()) == 2000


def test_add_shard_moves_only_keys_onto_the_new_shard():
    small = ConsistentHashRing(range(4))
    big = small.with_shard(4)
    keys = _keys(3000)
    moved = 0
    for key in keys:
        before, after = small.shard_for(key), big.shard_for(key)
        if before != after:
            assert after == 4  # minimal movement: changes only gain the new shard
            moved += 1
    # ~K/N with generous slack for hash variance.
    assert 0 < moved <= 2.5 * len(keys) / 5


def test_remove_shard_strands_only_its_keys():
    big = ConsistentHashRing(range(5))
    small = big.without_shard(2)
    for key in _keys(3000):
        before, after = big.shard_for(key), small.shard_for(key)
        if before != 2:
            assert after == before  # untouched shards keep every key
        else:
            assert after != 2


def test_mutation_returns_new_rings():
    ring = ConsistentHashRing(range(3))
    grown = ring.with_shard(7)
    assert ring.shard_ids == (0, 1, 2)
    assert grown.shard_ids == (0, 1, 2, 7)
    with pytest.raises(RingConfigurationError):
        ring.with_shard(1)
    with pytest.raises(RingConfigurationError):
        ring.without_shard(9)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"shard_ids": []},
        {"shard_ids": [1, 1]},
        {"shard_ids": [-1]},
        {"shard_ids": [0], "vnodes": 0},
        {"shard_ids": [0], "seed": b""},
        {"shard_ids": [0], "seed": b"x" * 65},
    ],
)
def test_invalid_configurations_are_rejected(kwargs):
    shard_ids = kwargs.pop("shard_ids")
    with pytest.raises(RingConfigurationError):
        ConsistentHashRing(shard_ids, **kwargs)
