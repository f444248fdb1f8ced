"""Experiment SEC — §V empirical security.

Three adversary experiments with real system traces:

1. **Frequency analysis (A7, §I strawman).**  The same skewed workload
   runs against (a) an encrypted-but-deterministic K-V store and (b) the
   Path ORAM store.  The attack de-anonymizes (a) completely and gets
   nothing from (b).
2. **Path uniformity (A7).**  Chi-square test that ORAM leaf choices are
   uniform and independent of the (maximally skewed) logical workload.
3. **Swap-size recovery (A5).**  Mutual information between true frame
   page counts and the noised swap-bus counts, with and without the
   random pre-evict/pre-load noise.
4. **Sync-interleaved uniformity (A7, delta sync).**  Block sync
   read-modify-writes exactly the pages a block changed, and the block
   is public — so the SP knows *which* logical pages each sync wrote.
   The worst case for linkability is a user who then reads exactly
   those pages.  Through the real service: the leaves the server sees
   over such a run must be uniform, and a read must land on the leaf
   its page was just written through no more often than chance.
"""

from __future__ import annotations

import pytest

from repro.core.service import HarDTAPEService
from repro.crypto.kdf import Drbg
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.node.node import EthereumNode
from repro.oram.client import PathOramClient
from repro.oram.encrypted_store import EncryptedKvStore
from repro.oram.server import OramServer
from repro.security.analysis import (
    frequency_attack,
    path_uniformity_pvalue,
    size_leakage,
)
from repro.security.observer import AccessPatternObserver
from repro.state.account import Account, to_address
from repro.state.backend import STORAGE_GROUP_SIZE
from repro.state.blocks import Transaction
from repro.workloads.contracts import erc20

from conftest import record_result

# A Zipf-ish skewed workload over 8 keys, mirroring hot contracts.
KEY_FREQUENCIES = [120, 60, 30, 15, 8, 4, 2, 1]


def _workload(rng: Drbg) -> list[bytes]:
    accesses = []
    for index, count in enumerate(KEY_FREQUENCIES):
        accesses += [b"contract-%d" % index] * count
    # Deterministic shuffle.
    for i in range(len(accesses) - 1, 0, -1):
        j = rng.randint(i + 1)
        accesses[i], accesses[j] = accesses[j], accesses[i]
    return accesses


@pytest.fixture(scope="module")
def traces():
    rng = Drbg(b"sec-bench")
    workload = _workload(rng.fork(b"shuffle"))

    # (a) Encrypted-only store.
    store = EncryptedKvStore(b"k" * 32)
    for key in sorted(set(workload)):
        store.put(key, b"value")
    warmup_len = len(store.trace.events)
    for key in workload:
        store.get(key)
    handle_trace = [e.handle for e in store.trace.events[warmup_len:]]
    # The adversary's public knowledge: plaintext keys by frequency rank,
    # mapped through the store's (observable) handle of each key.
    truth = [
        store._handle(b"contract-%d" % index)
        for index in range(len(KEY_FREQUENCIES))
    ]

    # (b) Path ORAM store, same workload.
    server = OramServer(height=9, block_size=64)
    observer = AccessPatternObserver().attach(server)
    client = PathOramClient(server, key=b"o" * 32, block_size=64,
                            rng=rng.fork(b"oram"))
    for key in sorted(set(workload)):
        client.write(key, b"value")
    observer.clear()
    for key in workload:
        client.read(key)
    oram_leaves = list(observer.leaves)

    return handle_trace, truth, oram_leaves, server.leaf_count


SYNC_ROUNDS = 80


@pytest.fixture(scope="module")
def sync_interleaved():
    """(write leaf, read leaf) per page over ``SYNC_ROUNDS`` rounds of
    "a block lands, it is delta-synced, the pages it wrote are read"."""
    users = [to_address(0xA0 + index) for index in range(4)]
    token = to_address(0x70CE)
    node = EthereumNode(genesis_accounts={
        **{user: Account(balance=10**20) for user in users},
        token: Account(
            code=erc20.erc20_runtime(),
            storage={erc20.balance_slot(user): 10**9 for user in users},
        ),
    })
    service = HarDTAPEService(
        node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    backend = service.devices[0].oram_backend
    observer = AccessPatternObserver().attach(service.oram_server)
    rng = Drbg(b"sec-sync-bench")
    pairs = []
    for round_no in range(SYNC_ROUNDS):
        # Skewed like the frequency workload: one hot pair, three in four.
        sender, peer = users[:2] if rng.randint(4) else users[2:]
        node.add_block([Transaction(
            sender=sender, to=token,
            data=erc20.transfer_calldata(peer, 1 + round_no),
        )])
        service.sync_new_blocks()
        written = observer.leaves
        observer.clear()
        # Read what the sync wrote, page for page and in its order.
        for update in node.sync_updates_for(node.height):
            backend.get_meta(update.address)
            groups = {key // STORAGE_GROUP_SIZE: key for key in sorted(update.slots)}
            for key in groups.values():
                backend.get_storage(update.address, key)
        read = observer.leaves
        observer.clear()
        assert len(written) == len(read) > 0
        pairs += zip(written, read)
    return pairs, service.oram_server.leaf_count


def test_frequency_attack_and_uniformity(benchmark, traces, sync_interleaved):
    handle_trace, truth, oram_leaves, leaf_count = traces
    sync_pairs, sync_leaf_count = sync_interleaved
    sync_pvalue = path_uniformity_pvalue(
        [leaf for pair in sync_pairs for leaf in pair], sync_leaf_count, bins=8
    )
    sync_repeats = sum(written == read for written, read in sync_pairs)
    # A coarser link than the exact leaf: the same eighth of the tree.
    eighth = sync_leaf_count // 8
    sync_near = sum(
        written // eighth == read // eighth for written, read in sync_pairs
    )
    near_chance = len(sync_pairs) / 8
    near_sigma = (near_chance * 7 / 8) ** 0.5

    def attack():
        enc_acc = frequency_attack(handle_trace, truth)
        oram_handles = [leaf.to_bytes(4, "big") for leaf in oram_leaves]
        oram_acc = frequency_attack(oram_handles, truth)
        pvalue = path_uniformity_pvalue(oram_leaves, leaf_count, bins=8)
        return enc_acc, oram_acc, pvalue

    enc_acc, oram_acc, pvalue = benchmark(attack)

    # Swap-noise experiment (A5).
    from repro.hardware.memory_layers import Layer2CallStack

    def swap_trace(noise: bool):
        l2 = Layer2CallStack(
            capacity_bytes=128 * 1024, rng=Drbg(b"swap"), noise_enabled=noise
        )
        sizes = [34, 40, 36, 50, 34, 42, 38, 44, 35, 47] * 3
        events = []
        for size_kb in sizes:
            events += l2.push_frame(size_kb * 1024)
        for _ in sizes:
            events += l2.pop_frame()
        return events

    plain = swap_trace(False)
    noisy = swap_trace(True)
    leak_plain = size_leakage(
        [e.real_pages for e in plain], [e.page_count for e in plain]
    )
    leak_noisy = size_leakage(
        [e.real_pages for e in noisy], [e.page_count for e in noisy]
    )

    lines = [
        "| adversary experiment | encrypted store | Path ORAM |",
        "|---|---|---|",
        f"| frequency-analysis accuracy | {enc_acc:.0%} | {oram_acc:.0%} |",
        "",
        f"ORAM path uniformity (chi-square p): {pvalue:.3f} "
        "(p > 0.01 = indistinguishable from uniform)",
        "",
        "| swap bus (A5) | size leakage (fraction of frame-size entropy) |",
        "|---|---|",
        f"| exact counts | {leak_plain:.2f} |",
        f"| with pre-evict/pre-load noise | {leak_noisy:.2f} |",
        "",
        f"Delta sync interleaved with reads of exactly the pages each sync "
        f"wrote ({SYNC_ROUNDS} blocks, {len(sync_pairs)} page writes, as many "
        f"reads): path uniformity chi-square p = {sync_pvalue:.3f}; a read "
        f"landed in its write's eighth of the tree in {sync_near} pairs "
        f"(chance: {near_chance:.0f} ± {near_sigma:.0f}) and on its very leaf "
        f"in {sync_repeats} (chance: {len(sync_pairs) / sync_leaf_count:.2f})",
    ]
    record_result(
        "security_distinguisher", "§V empirical security experiments", lines
    )

    assert enc_acc >= 0.75     # the strawman falls to frequency analysis
    assert oram_acc == 0.0     # the ORAM trace carries no frequency signal
    assert pvalue > 0.01       # physical paths are uniform
    assert leak_plain == pytest.approx(1.0)
    assert leak_noisy < 0.8    # noise destroys most of the signal
    assert sync_pvalue > 0.01  # a sync's writes and their reads: still uniform
    # ... and unlinkable: a read is no nearer its write than chance.
    assert abs(sync_near - near_chance) < 3 * near_sigma
    assert sync_repeats <= 2


@pytest.mark.sharding
def test_per_shard_distinguisher_fails_on_every_shard():
    """Experiment SEC, sharded: partitioning must not weaken obliviousness.

    Each shard serves a smaller key population, so a skew-reading
    adversary has a smaller anonymity set to attack — the same skewed
    workload is therefore attacked *per shard*, and the distinguisher
    must fail on every one.
    """
    import hashlib
    from collections import Counter

    from repro.sharding.backend import (
        ShardRoutingClient,
        ShardedOramConfig,
        ShardedOramFleet,
    )

    rng = Drbg(b"sec-shard-bench")
    keys = [b"contract-%02d" % i for i in range(32)]
    # Zipf-ish skew over 32 keys: plenty of per-shard frequency signal.
    workload = []
    for index, key in enumerate(keys):
        workload += [key] * max(1, 192 >> (index // 4))
    for i in range(len(workload) - 1, 0, -1):
        j = rng.randint(i + 1)
        workload[i], workload[j] = workload[j], workload[i]

    shard_count = 4
    config = ShardedOramConfig(
        shard_count=shard_count, oram_height=8, block_size=64
    )
    fleet = ShardedOramFleet(
        config, hashlib.sha256(b"sec-shard-master").digest()
    )
    observers = {
        sid: AccessPatternObserver().attach(shard.server)
        for sid, shard in sorted(fleet.shards.items())
    }
    client = ShardRoutingClient(fleet)
    for key in keys:
        client.write(key, b"value")
    for observer in observers.values():
        observer.clear()
    for key in workload:
        client.read(key)

    frequency = Counter(workload)
    leaf_count = 2 ** config.oram_height
    for sid, observer in observers.items():
        owned = sorted(
            (key for key in keys if fleet.ring.shard_for(key) == sid),
            key=lambda k: (-frequency[k], k),
        )
        leaves = observer.leaves
        assert len(leaves) >= 40  # enough per-shard samples to test
        handles = [leaf.to_bytes(4, "big") for leaf in leaves]
        assert frequency_attack(handles, owned) == 0.0
        assert path_uniformity_pvalue(leaves, leaf_count, bins=8) > 0.01
