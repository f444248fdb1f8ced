"""The simulated Ethereum full node: chain growth, traces, proofs."""

import pytest

from repro.node.node import EthereumNode
from repro.state.account import Account, to_address
from repro.state.blocks import Transaction
from repro.state.world import WorldState
from repro.workloads.asm import assemble, deployer, push

ALICE = to_address(0xA1)
CONTRACT = to_address(0xCC)


@pytest.fixture
def node():
    counter = assemble(
        push(0) + ["SLOAD"] + push(1) + ["ADD", "DUP1"] + push(0) + ["SSTORE"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    return EthereumNode(
        genesis_accounts={
            ALICE: Account(balance=10**21),
            CONTRACT: Account(code=counter),
        }
    )


def test_genesis_block(node):
    assert node.height == 0
    genesis = node.latest
    assert genesis.block.header.parent_hash == b"\x00" * 32
    assert genesis.post_state.accounts[ALICE].balance == 10**21


def test_add_block_advances_chain(node):
    executed = node.add_block([Transaction(sender=ALICE, to=CONTRACT)])
    assert node.height == 1
    assert executed.block.header.parent_hash == node.block_at(0).block.block_hash()
    assert executed.results[0].success
    assert executed.post_state.accounts[CONTRACT].storage[0] == 1


def test_blocks_chain_state(node):
    node.add_block([Transaction(sender=ALICE, to=CONTRACT)])
    node.add_block([Transaction(sender=ALICE, to=CONTRACT)])
    assert node.state_at(2).accounts[CONTRACT].storage[0] == 2
    assert node.state_at(1).accounts[CONTRACT].storage[0] == 1
    assert 0 not in node.state_at(0).accounts[CONTRACT].storage


def test_state_roots_differ_per_block(node):
    node.add_block([Transaction(sender=ALICE, to=CONTRACT)])
    node.add_block([Transaction(sender=ALICE, to=CONTRACT)])
    roots = {node.block_at(i).block.header.state_root for i in range(3)}
    assert len(roots) == 3


def test_touched_accounts_tracked(node):
    executed = node.add_block([Transaction(sender=ALICE, to=CONTRACT, value=5)])
    assert ALICE in executed.touched_accounts
    assert CONTRACT in executed.touched_accounts


def test_debug_trace_transaction(node):
    node.add_block([Transaction(sender=ALICE, to=CONTRACT)])
    logs, result = node.debug_trace_transaction(1, 0)
    assert result.success
    ops = [entry.op for entry in logs]
    assert ops[0] == "PUSH0"
    assert "SLOAD" in ops and "SSTORE" in ops and "RETURN" in ops


def test_debug_trace_uses_pre_state_of_tx(node):
    # Two identical txs in one block: the second must see storage == 1.
    node.add_block(
        [Transaction(sender=ALICE, to=CONTRACT), Transaction(sender=ALICE, to=CONTRACT)]
    )
    _, result0 = node.debug_trace_transaction(1, 0)
    _, result1 = node.debug_trace_transaction(1, 1)
    assert int.from_bytes(result0.return_data, "big") == 1
    assert int.from_bytes(result1.return_data, "big") == 2


def test_debug_trace_is_replayable(node):
    node.add_block([Transaction(sender=ALICE, to=CONTRACT)])
    logs_a, _ = node.debug_trace_transaction(1, 0)
    logs_b, _ = node.debug_trace_transaction(1, 0)
    assert [l.to_dict() for l in logs_a] == [l.to_dict() for l in logs_b]


def test_debug_trace_bad_index(node):
    node.add_block([])
    with pytest.raises(KeyError):
        node.debug_trace_transaction(1, 0)
    with pytest.raises(KeyError):
        node.debug_trace_transaction(99, 0)


def test_get_proof_verifies(node):
    node.add_block([Transaction(sender=ALICE, to=CONTRACT)])
    update = node.get_proof(CONTRACT, [0, 7], 1)
    root = node.block_at(1).block.header.state_root
    proven = WorldState.verify_account_proof(root, CONTRACT, update.account_proof)
    assert proven is not None
    assert update.slots == {0: 1, 7: 0} and update.code is None
    for key, value in update.slots.items():
        assert value == WorldState.verify_storage_proof(
            proven.storage_root, key, update.storage_proofs[key]
        )


def test_sync_updates_cover_touched_accounts(node):
    node.add_block([Transaction(sender=ALICE, to=CONTRACT, value=3)])
    updates = {update.address: update for update in node.sync_updates_for(1)}
    assert {ALICE, CONTRACT} <= set(updates)
    root = node.block_at(1).block.header.state_root
    post = node.state_at(1)
    for address, update in updates.items():
        proven = WorldState.verify_account_proof(root, address, update.account_proof)
        if proven is not None:
            assert proven.meta.balance == post.accounts[address].balance
    # The delta names what the block wrote and nothing else: the counter
    # slot with its proof, no slot of the plain sender, no bytecode.
    assert updates[CONTRACT].slots == {0: 1}
    assert set(updates[CONTRACT].storage_proofs) == {0}
    assert not updates[ALICE].slots and not updates[ALICE].storage_proofs
    assert all(update.code is None for update in updates.values())


def test_sync_updates_ship_code_only_for_the_block_that_set_it(node):
    runtime = assemble(push(1) + ["PUSH0", "SSTORE", "STOP"])
    executed = node.add_block(
        [Transaction(sender=ALICE, to=None, data=deployer(runtime))]
    )
    created = executed.results[0].created_address
    node.add_block([Transaction(sender=ALICE, to=created)])
    deployed = {update.address: update for update in node.sync_updates_for(1)}
    called = {update.address: update for update in node.sync_updates_for(2)}
    assert deployed[created].code == runtime
    assert called[created].code is None and called[created].slots == {0: 1}


def test_block_hash_lookup_in_chain_context(node):
    node.add_block([])
    context = node.chain_context(node.latest.block.header)
    assert context.block_hash(0) == node.block_at(0).block.block_hash()
