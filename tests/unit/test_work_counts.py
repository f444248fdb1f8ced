"""Work done once: count gates on the sync path, the frame set-up and the
EVM step path, the decrypt memo and the crypto tier.

Each gate counts calls through a monkeypatched counter, so it is exact
by construction and reads the same on a loaded CI runner as on an idle
laptop — no clock anywhere.  The "before" in comments is what the code
did on the same input before the PR that added the gate (19: one trie
build per account, one jumpdest scan per code; 22: delta sync; 23: the
per-opcode step table; 24: the live-blob decrypt memo).
"""

import functools
import hashlib
import sys

import pytest

from repro.core import HarDTAPEService, PreExecutionClient, SecurityFeatures
from repro.core.device import DeviceConfig
from repro.crypto import ecc
from repro.crypto.backend import DEFAULT_BACKEND, activate, active_backend
from repro.crypto.suite import AcceleratedAesGcmAead
from repro.evm import opcodes
from repro.evm.executor import execute_transaction
from repro.evm.frame import ExecutionFrame, analyze_jumpdests
from repro.evm.instructions import DISPATCH, STEP_TABLE
from repro.evm.tracer import CountingTracer, Tracer
from repro.hardware.hevm import HardwareTracer, HevmCore
from repro.hardware.timing import CostModel, SimClock
from repro.node import EthereumNode
from repro.oram import paging
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.perf.bench import PerfBenchConfig, _workload
from repro.state import Account, Transaction, to_address
from repro.state.backend import STORAGE_GROUP_SIZE
from repro.state.journal import JournaledState
from repro.telemetry.unified import group_for_op
from repro.trie import MerklePatriciaTrie
from repro.workloads.asm import assemble, deployer, push

pytestmark = pytest.mark.perf


def _count_calls(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to append to the returned list on every call."""
    calls: list = []
    original = getattr(owner, name)

    @functools.wraps(original)
    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _last_block_on_its_own_node(evalset) -> EthereumNode:
    """The evaluation set's last block, about to be re-executed on a node
    of its own so that no earlier test has warmed the state's tries."""
    source = evalset.node
    return EthereumNode(
        genesis_accounts=source.state_at(source.height - 1).accounts,
        chain_id=source.chain_id,
        coinbase=source.coinbase,
    )


def _changed_slots(executed) -> dict:
    """What the block changed, by diffing whole accounts: the oracle for
    the delta the node derives from its write sets."""
    changed = {}
    for address in executed.touched_accounts:
        before = executed.pre_state.accounts.get(address, Account()).storage
        after = executed.post_state.accounts.get(address, Account()).storage
        keys = {
            key for key in before.keys() | after.keys()
            if before.get(key, 0) != after.get(key, 0)
        }
        if keys:
            changed[address] = keys
    return changed


def _pages(executed, changed) -> int:
    """Touched accounts + storage groups holding a changed slot."""
    return len(executed.touched_accounts) + sum(
        len({key // STORAGE_GROUP_SIZE for key in keys}) for keys in changed.values()
    )


def test_sync_updates_build_one_storage_trie_per_touched_account(
    tiny_evalset, monkeypatch
):
    node = _last_block_on_its_own_node(tiny_evalset)
    executed = node.add_block(list(tiny_evalset.node.latest.block.transactions))
    accounts = executed.post_state.accounts
    changed = _changed_slots(executed)
    slots = [
        sum(1 for value in accounts[address].storage.values() if value)
        for address in changed
    ]
    assert sum(slots) > max(slots) > 1  # several accounts, many slots each

    puts = _count_calls(monkeypatch, MerklePatriciaTrie, "put")
    updates = node.sync_updates_for(1)
    # One proof per slot the block changed; before, one per slot held.
    assert {
        update.address: set(update.storage_proofs)
        for update in updates if update.storage_proofs
    } == changed
    assert sum(len(keys) for keys in changed.values()) < sum(slots)
    # One put per slot of each account with a changed slot; before PR 19,
    # one per slot *per slot proven* (the sum of squares).
    assert len(puts) == sum(slots) < sum(count * count for count in slots)
    # The committed state keeps what it built: asking again builds nothing.
    node.sync_updates_for(1)
    node.get_proof(max(changed, key=lambda a: len(accounts[a].storage)), [0, 1], 1)
    assert len(puts) == sum(slots)


def test_block_sync_costs_one_access_per_changed_page(tiny_evalset, monkeypatch):
    node = _last_block_on_its_own_node(tiny_evalset)
    service = HarDTAPEService(
        node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    executed = node.add_block(list(tiny_evalset.node.latest.block.transactions))
    changed = _changed_slots(executed)
    assert not executed.changed_code
    held = sum(
        len(paging.account_pages(address, executed.post_state.accounts[address]))
        for address in executed.touched_accounts
        if address in executed.post_state.accounts
    )

    accesses = _count_calls(monkeypatch, PathOramClient, "access")
    roots = _count_calls(monkeypatch, MerklePatriciaTrie, "root_hash")
    updates = node.sync_updates_for(1)
    del roots[:], accesses[:]  # the Node's own commitment is not the device's
    synchronizer = service.devices[0].hypervisor.synchronizer
    written = synchronizer.apply_block(executed.block.header.state_root, updates)
    # Before: every page of every touched account (``held``), code included.
    assert len(accesses) == written == _pages(executed, changed) < held
    assert synchronizer.stats.storage_slots_verified == sum(
        len(keys) for keys in changed.values()
    )
    assert not roots  # before: one full storage-root rebuild per account


def test_a_new_code_hash_adds_its_code_pages_and_nothing_else(monkeypatch):
    alice = to_address(0xA1)
    runtime = assemble(push(1) + ["PUSH0", "SSTORE", "STOP"]).ljust(1500, b"\x00")
    node = EthereumNode(genesis_accounts={alice: Account(balance=10**21)})
    service = HarDTAPEService(
        node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    accesses = _count_calls(monkeypatch, PathOramClient, "access")
    deployed = node.add_block(
        [Transaction(sender=alice, to=None, data=deployer(runtime))]
    )
    service.sync_new_blocks()
    # The sender, the coinbase and the new account, plus two code pages.
    assert len(accesses) == len(deployed.touched_accounts) + 2
    del accesses[:]
    called = node.add_block(
        [Transaction(sender=alice, to=deployed.results[0].created_address)]
    )
    service.sync_new_blocks()
    assert len(accesses) == _pages(called, _changed_slots(called))
    assert len(accesses) == len(called.touched_accounts) + 1


def test_bootstrap_writes_every_account_pages_walk_in_state_order(
    tiny_evalset, monkeypatch
):
    accesses = _count_calls(monkeypatch, PathOramClient, "access")
    node = tiny_evalset.node
    HarDTAPEService(node, SecurityFeatures.from_level("full"), charge_fees=False)
    assert [args[1:3] for args in accesses] == [
        page
        for address, account in node.state_at(node.height).accounts.items()
        for page in paging.account_pages(address, account)
    ]


def test_proofs_from_an_unchanged_trie_cost_one_commit(monkeypatch):
    trie = MerklePatriciaTrie()
    keys = [b"key-%03d" % index for index in range(64)]
    for key in keys:
        trie.put(key, key * 5)
    walks = _count_calls(monkeypatch, MerklePatriciaTrie, "_commit_batched")
    for key in keys:
        trie.prove(key)
        trie.root_hash()
    assert len(walks) == 1  # before: one per prove and one per root_hash, 128
    trie.put(b"one more", b"value")
    trie.prove(keys[0])
    trie.prove(keys[1])
    assert len(walks) == 2


def test_jumpdest_scans_per_bundle_equal_its_distinct_codes(
    tiny_evalset, monkeypatch
):
    frames = _count_calls(monkeypatch, ExecutionFrame, "__init__")
    node = tiny_evalset.node
    state = JournaledState(node.state_at(node.height).copy())
    chain = node.chain_context(node.latest.block.header)
    analyze_jumpdests.cache_clear()
    for tx in tiny_evalset.transactions:
        execute_transaction(state, chain, tx, charge_fees=False)
    codes = {code for _frame, _message, code in frames}
    info = analyze_jumpdests.cache_info()
    assert len(frames) > len(codes) > 1  # contracts are called again and again
    # One scan per distinct code; before, one per frame.
    assert (info.misses, info.hits) == (len(codes), len(frames) - len(codes))


# -- the EVM step path -----------------------------------------------------


def _raw_bundle(evalset, core, struct_trace=False):
    """One 8-transaction bundle on ``core`` at level raw (no ORAM, no
    fees): ``(per-tx breakdowns, per-tx struct logs)``."""
    node = evalset.node
    results, breakdowns, stats, struct_logs = core.run_bundle(
        evalset.transactions[:8],
        node.chain_context(node.latest.block.header),
        node.state_at(node.height).copy(),
        None,
        storage_via_oram=False,
        code_via_oram=False,
        struct_trace=struct_trace,
        charge_fees=False,
    )
    core.reset()
    assert len(results) == 8 and not stats.aborted
    return breakdowns, struct_logs


def test_the_step_table_is_the_opcode_metadata_beside_its_handler():
    for opcode in range(256):
        entry = opcodes.info(opcode)
        if entry is None:
            assert STEP_TABLE[opcode] is None
        else:
            assert STEP_TABLE[opcode] == (
                DISPATCH[opcode], entry.base_gas, 1 + opcodes.push_size(opcode)
            )
    assert len(STEP_TABLE) == len(opcodes.GROUP_NAMES) == 256
    assert [group is None for group in opcodes.GROUP_NAMES] == [
        row is None for row in STEP_TABLE
    ]


def test_a_step_looks_nothing_up_that_the_opcode_byte_already_decides(
    tiny_evalset, monkeypatch
):
    steps = _count_calls(monkeypatch, HardwareTracer, "on_step")
    info = _count_calls(monkeypatch, opcodes, "info")
    push_size = _count_calls(monkeypatch, opcodes, "push_size")
    is_push = _count_calls(monkeypatch, opcodes, "is_push")
    priced = _count_calls(monkeypatch, CostModel, "hevm_instruction_us")
    idle_hooks = _count_calls(monkeypatch, Tracer, "on_step")
    _raw_bundle(tiny_evalset, HevmCore(0, SimClock(), CostModel()))
    assert len(steps) > 1_000
    # Before, per step: info twice (the loop, the hardware tracer),
    # push_size and is_push once each, one hevm_instruction_us, and one
    # base-class no-op for the call tracer, which has no use for steps.
    assert (len(info), len(push_size), len(is_push), len(idle_hooks)) == (0, 0, 0, 0)
    # One price list per bundle, read from the model the core holds now.
    assert len(priced) == sum(group is not None for group in opcodes.GROUP_NAMES)


def test_the_hardware_tracer_the_struct_log_and_the_count_see_the_same_steps(
    tiny_evalset, monkeypatch
):
    steps = _count_calls(monkeypatch, HardwareTracer, "on_step")
    _breakdowns, struct_logs = _raw_bundle(
        tiny_evalset, HevmCore(0, SimClock(), CostModel()), struct_trace=True
    )
    node = tiny_evalset.node
    state = JournaledState(node.state_at(node.height).copy())
    chain = node.chain_context(node.latest.block.header)
    counting = CountingTracer()
    for tx in tiny_evalset.transactions[:8]:
        execute_transaction(state, chain, tx, tracer=counting, charge_fees=False)
    assert len(steps) == sum(map(len, struct_logs)) == counting.counts.instructions
    assert sum(counting.counts.by_group.values()) == counting.counts.instructions


def test_the_step_prices_follow_the_cost_model_the_core_holds_now(tiny_evalset):
    """The price list is built per run from the core's model, never kept:
    perturb two constants between runs (ROADMAP item 9 will) and the next
    run's execution time is the per-step sum under the *new* constants,
    to the last bit."""
    core = HevmCore(0, SimClock(), CostModel())
    before, _logs = _raw_bundle(tiny_evalset, core)
    core.cost.cycles_per_group["arithmetic"] = 7.0
    core.cost.hevm_cycle_us = 0.013
    after, struct_logs = _raw_bundle(tiny_evalset, core, struct_trace=True)
    for breakdown, logs in zip(after, struct_logs):
        expected = 0.0
        for row in logs:
            expected += core.cost.hevm_instruction_us(group_for_op(row.op))
        assert breakdown.execution_us.hex() == expected.hex()
    assert sum(b.execution_us for b in after) > 1.3 * sum(b.execution_us for b in before)


# -- the decrypt memo ------------------------------------------------------


@pytest.mark.parametrize("capacity,hits", [(4096, 936), (64, 636)])
def test_a_path_read_hashes_only_what_the_memo_missed(monkeypatch, capacity, hits):
    """The perf-bench replay (BENCH_perf.json's 936 hits / 0 misses at
    4,096 entries; 64 entries make the bound bite).  Every slot sealed is
    one AES-GCM seal, every slot the memo missed is one AES-GCM open, a
    hit costs nothing, and no hashlib hash runs at all.  Before, the ORAM
    cipher was ``Blake2Aead``: each seal and each open was a SHAKE-256
    keystream plus a keyed BLAKE2b tag."""
    config = PerfBenchConfig()
    key = hashlib.blake2b(
        config.seed.to_bytes(8, "big"), digest_size=32, person=b"perf-key"
    ).digest()
    server = OramServer(height=config.oram_height)
    client = PathOramClient(server, key, decrypt_memo_blocks=capacity)
    slots = (config.oram_height + 1) * server.bucket_size

    digests = _count_calls(monkeypatch, hashlib, "blake2b")
    keystreams = _count_calls(monkeypatch, hashlib, "shake_256")
    seals = _count_calls(monkeypatch, AcceleratedAesGcmAead, "encrypt")
    opens = _count_calls(monkeypatch, AcceleratedAesGcmAead, "decrypt")
    for access_key, payload in _workload(config):
        del seals[:], opens[:]
        client.access(access_key, payload)
        last = client.last_access
        assert len(seals) == slots == 24
        assert len(opens) == last.memo_misses
        # Live only: each entry *is* a blob object the server holds now.
        stored = {id(blob) for bucket in server.snapshot_tree() for blob in bucket}
        held = {id(blob) for blob, _aad, _plaintext in client.memo._live.values()}
        assert held <= stored and len(held) == len(client.memo._live)
        if capacity >= len(stored):
            assert held == stored
    assert not digests and not keystreams
    assert (client.memo.stats.hits, client.memo.stats.misses) == (hits, 936 - hits)


# -- the crypto tier -------------------------------------------------------


def _session_cycle(service, transactions, key_seed) -> None:
    """connect -> bundle -> suspend -> resume -> bundle, with the user's
    receipt check after each bundle (the e2e ``session_churn`` cycle)."""
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=key_seed
    )

    def bundle(session, transaction) -> None:
        report, _, _ = client.pre_execute(service, session, [transaction])
        receipt = session.device.hypervisor.receipt_for(report.bundle_id)
        receipt.verify(session.peer_public)

    session = client.connect(service)
    bundle(session, transactions[0])
    session = client.resume(client.suspend(session))
    bundle(session, transactions[1])


@pytest.mark.parametrize("tier,tables", [(DEFAULT_BACKEND, 0)])
def test_a_session_cycle_builds_no_verify_table_on_the_default_tier(
    tiny_evalset, monkeypatch, tier, tables
):
    """Device and process on one tier.  On the default (OpenSSL) tier a
    whole session cycle builds no ECDSA window table and runs no
    table-free verify: the channel's peer checks and the attestation
    chain all go through the tier's verifier."""
    features = SecurityFeatures.from_level("ES")
    features.receipts = True
    service = HarDTAPEService(
        tiny_evalset.node, features, charge_fees=False,
        device_config=DeviceConfig(crypto_backend=tier),
    )
    transactions = list(tiny_evalset.transactions)
    before = active_backend().name
    activate(tier)
    try:
        # One uncounted cycle warms what every session shares, and
        # signing's process-wide G table exists.
        ecc._g_table()
        _session_cycle(service, transactions, b"\x31" * 32)
        built = _count_calls(monkeypatch, ecc, "_window_table")
        table_free: list = []
        jac_mul = ecc._jac_mul

        def counting(k, point):
            if sys._getframe(1).f_code is ecc.PublicKey.verify.__code__:
                table_free.append(point)  # not ECDH's scalar multiply
            return jac_mul(k, point)

        monkeypatch.setattr(ecc, "_jac_mul", counting)
        _session_cycle(service, transactions, b"\x32" * 32)
    finally:
        activate(before)
    assert (len(built), len(table_free)) == (tables, 0)
