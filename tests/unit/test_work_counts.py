"""Work done once: count gates on the sync path and the frame set-up.

Each gate counts calls through a monkeypatched counter, so it is exact
by construction and reads the same on a loaded CI runner as on an idle
laptop — no clock anywhere.  The numbers in comments are what the code
before PR 19 did on the same input.
"""

import functools

import pytest

from repro.evm.executor import execute_transaction
from repro.evm.frame import ExecutionFrame, analyze_jumpdests
from repro.node import EthereumNode
from repro.state.journal import JournaledState
from repro.trie import MerklePatriciaTrie

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


def test_sync_updates_build_one_storage_trie_per_touched_account(
    tiny_evalset, monkeypatch
):
    # The evaluation set's last block, re-executed on a node of its own
    # so that no earlier test has warmed the state's tries.
    source = tiny_evalset.node
    node = EthereumNode(
        genesis_accounts=source.state_at(source.height - 1).accounts,
        chain_id=source.chain_id,
        coinbase=source.coinbase,
    )
    executed = node.add_block(list(source.latest.block.transactions))
    accounts = executed.post_state.accounts
    slots = [
        sum(1 for value in accounts[address].storage.values() if value)
        for address in executed.touched_accounts
        if address in accounts
    ]
    assert sum(slots) > max(slots) > 1  # several accounts, many slots each

    puts = _count_calls(monkeypatch, MerklePatriciaTrie, "put")
    updates = node.sync_updates_for(1)
    assert sum(len(update.storage_proofs) for update in updates) == sum(slots)
    # One put per slot of each touched account; before, one per slot
    # *per slot proven* (the sum of squares).
    assert len(puts) == sum(slots) < sum(count * count for count in slots)
    # The committed state keeps what it built: asking again builds nothing.
    node.sync_updates_for(1)
    node.get_proof(max(accounts, key=lambda a: len(accounts[a].storage)), [0, 1], 1)
    assert len(puts) == sum(slots)


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
