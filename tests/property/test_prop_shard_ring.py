"""Properties of the consistent-hash ring: the scale-out contract.

A live fleet grows and shrinks by re-encrypting only the ORAM trees
whose pages move, so the ring must guarantee — for *any* topology and
key population, not just the benchmarked ones:

* adding a shard moves keys only **onto** the new shard;
* removing a shard moves only **that shard's** keys, spread over the
  survivors;
* the volume moved stays near the K/N minimum;
* placement is a pure function of (seed, shard ids, vnodes) — byte
  stable across processes and runs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sharding.ring import ConsistentHashRing

pytestmark = pytest.mark.sharding

shard_sets = st.sets(st.integers(0, 31), min_size=1, max_size=8)
key_lists = st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=80)
seeds = st.binary(min_size=1, max_size=32)


@given(shards=shard_sets, keys=key_lists, new=st.integers(32, 63))
@settings(max_examples=120, deadline=None)
def test_adding_a_shard_only_gains_keys(shards, keys, new):
    before = ConsistentHashRing(shards)
    after = before.with_shard(new)
    for key in keys:
        a, b = before.shard_for(key), after.shard_for(key)
        assert b == a or b == new


@given(shards=st.sets(st.integers(0, 31), min_size=2, max_size=8), keys=key_lists)
@settings(max_examples=120, deadline=None)
def test_removing_a_shard_strands_only_its_keys(shards, keys):
    victim = min(shards)
    before = ConsistentHashRing(shards)
    after = before.without_shard(victim)
    for key in keys:
        a, b = before.shard_for(key), after.shard_for(key)
        if a != victim:
            assert b == a
        else:
            assert b != victim


@given(shards=shard_sets, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_placement_is_byte_stable(shards, seed):
    keys = [b"probe-%04d" % i for i in range(50)]
    first = ConsistentHashRing(shards, seed=seed)
    second = ConsistentHashRing(shards, seed=seed)
    assert [first.shard_for(k) for k in keys] == [second.shard_for(k) for k in keys]


@given(n=st.integers(2, 12))
@settings(max_examples=12, deadline=None)
def test_movement_stays_near_the_k_over_n_minimum(n):
    # A fixed dense corpus so the bound is statistical, not adversarial.
    keys = [b"corpus-%05d" % i for i in range(2000)]
    before = ConsistentHashRing(range(n))
    after = before.with_shard(n)
    moved = sum(1 for k in keys if before.shard_for(k) != after.shard_for(k))
    minimum = len(keys) / (n + 1)
    assert moved <= 2.5 * minimum  # near-minimal movement, generous slack
    assert moved > 0  # the new shard actually takes load
