"""Service-level block sync, service stats, deployer edges."""

import copy

import pytest

from repro.bench.stack import node_ground_truth, world_digest
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.faults.policy import QuarantinePolicy
from repro.hypervisor.bundle_codec import TransactionBundle
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.hypervisor.receipts import ReceiptAuditor, ReceiptMismatchError
from repro.node.node import EthereumNode
from repro.state.account import Account, to_address
from repro.state.blocks import Transaction
from repro.workloads.asm import assemble, push
from repro.workloads.contracts import erc20


@pytest.fixture(scope="module")
def evalset():
    # A private evaluation set: this module GROWS the chain, so it must
    # not share the session-scoped fixture with other tests.
    from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

    return build_evaluation_set(
        EvaluationSetConfig(blocks=2, txs_per_block=4, profile_contract_count=8)
    )


def test_service_sync_tracks_multiple_new_blocks(evalset):
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x2a" * 32
    )
    session = client.connect(service)
    population = evalset.population
    user, peer = population.users[0], population.users[1]

    start_height = service.synced_height
    for _ in range(3):
        evalset.node.add_block([
            Transaction(sender=user, to=population.token_a,
                        data=erc20.transfer_calldata(peer, 7)),
        ])
    synced = service.sync_new_blocks()
    assert synced == 3
    assert service.synced_height == start_height + 3
    assert service.stats.blocks_synced >= 3

    # The new balance is visible through the ORAM.
    report, _, _ = client.pre_execute(service, session, [
        Transaction(sender=user, to=population.token_a,
                    data=erc20.balance_of_calldata(peer)),
    ])
    onchain = evalset.node.state_at(service.synced_height).accounts[
        population.token_a
    ].storage[erc20.balance_slot(peer)]
    assert int.from_bytes(report.traces[0].return_data, "big") == onchain


def _connected(node, seed: int, receipts: bool = False):
    features = SecurityFeatures.from_level("full")
    features.receipts = receipts
    service = HarDTAPEService(node, features, charge_fees=False)
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=bytes([seed]) * 32
    )
    return service, client, client.connect(service)


def _assert_reads_match_the_node(service, client, session, transactions):
    """Pre-execution at the synced tip returns what the node computes."""
    for tx in transactions:
        expected, _, _ = node_ground_truth(service, tx)
        report, _, _ = client.pre_execute(service, session, [tx])
        trace = report.traces[0]
        assert (trace.status, trace.gas_used, trace.return_data) == (
            expected.status, expected.gas_used, expected.return_data
        )


def test_sync_clears_the_last_slot_of_a_storage_group(evalset):
    """An ERC-20 transfer of a whole balance zeroes a slot that is alone
    in its storage group.  Whole-account sync skipped the emptied group
    and left the old balance in the ORAM; the delta carries ``slot: 0``.
    """
    node, population = evalset.node, evalset.population
    service, client, session = _connected(node, 0x2C)
    token, (user, peer) = population.token_a, population.users[2:4]
    slot = erc20.balance_slot(user)
    held = node.state_at(node.height).accounts[token].storage
    assert [key for key in held if key // 32 == slot // 32] == [slot]

    node.add_block([Transaction(
        sender=user, to=token, data=erc20.transfer_calldata(peer, held[slot]),
    )])
    assert service.sync_new_blocks() == 1
    assert node.state_at(node.height).get_storage(token, slot) == 0
    assert service.devices[0].oram_backend.get_storage(token, slot) == 0
    balance_of = Transaction(
        sender=peer, to=token, data=erc20.balance_of_calldata(user)
    )
    report, _, _ = client.pre_execute(service, session, [balance_of])
    assert int.from_bytes(report.traces[0].return_data, "big") == 0
    _assert_reads_match_the_node(service, client, session, [
        balance_of,
        Transaction(sender=user, to=token, data=erc20.transfer_calldata(peer, 1)),
    ])


ALICE, DOOMED = to_address(0xA1), to_address(0xD00D)
DOOMED_SLOTS = {0: 7, 1: 8, 40: 9}


def _node_with_a_doomed_contract():
    """``DOOMED`` holds three slots in two storage groups and
    self-destructs to ALICE when called."""
    return EthereumNode(genesis_accounts={
        ALICE: Account(balance=10**21),
        DOOMED: Account(
            balance=5,
            code=assemble(push(int.from_bytes(ALICE, "big")) + ["SELFDESTRUCT"]),
            storage=dict(DOOMED_SLOTS),
        ),
    })


def test_sync_clears_a_self_destructed_contract():
    node = _node_with_a_doomed_contract()
    service, client, session = _connected(node, 0x2D)
    backend = service.devices[0].oram_backend
    assert backend.get_storage(DOOMED, 40) == 9 and backend.get_code(DOOMED)

    executed = node.add_block([Transaction(sender=ALICE, to=DOOMED)])
    assert DOOMED not in executed.post_state.accounts
    (update,) = [u for u in node.sync_updates_for(1) if u.address == DOOMED]
    # Every slot the account held, each cleared under the empty root.
    assert update.slots == dict.fromkeys(DOOMED_SLOTS, 0)
    assert update.storage_proofs == dict.fromkeys(DOOMED_SLOTS, [])
    assert service.sync_new_blocks() == 1

    backend = service.devices[0].oram_backend
    assert [backend.get_storage(DOOMED, key) for key in DOOMED_SLOTS] == [0, 0, 0]
    assert not backend.get_meta(DOOMED).exists
    assert backend.get_code(DOOMED) == b""
    # A call to the dead address is a plain transfer now, as on the node.
    _assert_reads_match_the_node(
        service, client, session, [Transaction(sender=ALICE, to=DOOMED, value=1)]
    )
    # Replay heals through a destroyed contract too: block 1 is replayed
    # against a device that no longer holds the code block 1 ran.
    before = world_digest(service)
    assert service.repair_sync() == 1
    assert world_digest(service) == before


def _token_node():
    alice, token = to_address(0xA1), to_address(0x70CE)
    node = EthereumNode(genesis_accounts={
        alice: Account(balance=10**20),
        to_address(0xB2): Account(balance=10**20),
        token: Account(
            code=erc20.erc20_runtime(),
            storage={erc20.balance_slot(alice): 10**6},
        ),
    })
    return node, alice, token


def test_an_omitted_slot_passes_sync_and_fails_the_receipt_audit():
    """What delta sync does *not* check: completeness.  A changed slot the
    Node leaves out has no proof to fail (a withheld account or block
    never had one either); the lie surfaces where those do, at the
    receipt audit of a bundle that reads the slot, and ``repair_sync``
    heals it."""
    bob, poor = to_address(0xB2), to_address(0xC3)
    node, alice, token = _token_node()
    service, client, session = _connected(node, 0x2E, receipts=True)
    clean, _, _ = _connected(copy.deepcopy(node), 0x2E, receipts=True)
    block = [Transaction(
        sender=alice, to=token, data=erc20.transfer_calldata(poor, 1_000)
    )]
    for twin in (service, clean):
        twin.node.add_block(block)
    assert clean.sync_new_blocks() == 1

    # The block alone funds ``poor``; the Node withholds exactly that slot.
    updates = node.sync_updates_for(1)
    (update,) = [u for u in updates if u.address == token]
    funded = erc20.balance_slot(poor)
    del update.slots[funded], update.storage_proofs[funded]
    hypervisor = service.devices[0].hypervisor
    hypervisor.sync_block(node.latest.block.header.state_root, updates)
    service.synced_height = 1
    assert hypervisor.synchronizer.stats.proofs_rejected == 0
    assert world_digest(service) != world_digest(clean)

    # poor's transfer succeeds on the node, reverts on the stale ORAM.
    tx = Transaction(sender=poor, to=token, data=erc20.transfer_calldata(bob, 5))
    bundle_id = TransactionBundle(
        transactions=(tx,), block_number=service.synced_height
    ).bundle_id()
    _, expected_trace, _ = node_ground_truth(service, tx)

    def audit():
        client.pre_execute(service, session, [tx])
        ReceiptAuditor(samples_per_tx=2, seed=1).audit(
            bundle_id, hypervisor.receipt_for(bundle_id), [expected_trace],
            verify_key=session.peer_public,
        )

    with pytest.raises(ReceiptMismatchError) as caught:
        audit()
    policy = QuarantinePolicy(service)
    assert policy.quarantine(0, caught.value)
    # The root the device last verified *is* the tip's, so the policy's
    # staleness test sees nothing to replay: repair is the operator's call.
    policy._repair_sync_if_stale()
    assert policy.resyncs == 0
    assert service.repair_sync() == 1
    assert world_digest(service) == world_digest(clean)
    audit()


def _content(service) -> dict:
    """Logical ORAM content, less the pages that read as never written:
    a storage group whose every record was cleared is a page of zeros
    after a delta and no page at all after a bootstrap."""
    content = service.shared_oram_client.logical_content(service.oram_server)
    return {key: page for key, page in content.items() if any(page)}


def test_repair_sync_twice_is_once_is_a_fresh_bootstrap_at_the_tip():
    node, alice, token = _token_node()
    bob = to_address(0xB2)
    service, _, _ = _connected(node, 0x2F)
    transfer = lambda sender, to, amount: Transaction(
        sender=sender, to=token, data=erc20.transfer_calldata(to, amount)
    )
    node.add_block([transfer(alice, bob, 10**6)])  # zeroes alice's slot
    node.add_block([transfer(bob, alice, 400), transfer(bob, token, 1)])
    node.add_block([transfer(alice, bob, 400)])    # zeroes it again
    assert service.sync_new_blocks() == 3
    synced = _content(service)
    assert service.repair_sync() == 3
    once = _content(service)
    assert service.repair_sync() == 3
    fresh, _, _ = _connected(node, 0x2F)
    assert synced == once == _content(service) == _content(fresh)
    assert world_digest(service) != world_digest(fresh)  # the page of zeros


def test_service_stats_accumulate(evalset):
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("ES"), charge_fees=False
    )
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x2b" * 32
    )
    session = client.connect(service)
    for tx in evalset.transactions[:3]:
        client.pre_execute(service, session, [tx])
    assert service.stats.bundles_served == 3
    assert service.stats.transactions_served == 3
    assert service.stats.total_service_time_us > 0
    assert service.stats.breakdown_total.total_us > 0


def test_deployer_handles_large_runtime(backend, chain):
    """Runtimes > 255 bytes force a wider PUSH in the init header."""
    from repro.evm.executor import execute_transaction
    from repro.state.blocks import Transaction
    from repro.state.journal import JournaledState
    from repro.workloads.asm import assemble, deployer, push

    from tests.conftest import ALICE

    body = []
    for i in range(120):
        body += push(i + 1) + ["POP"]
    runtime = assemble(body + ["STOP"])
    assert len(runtime) > 255
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=None, data=deployer(runtime))
    )
    assert result.success, result.error
    assert state.get_code(result.created_address) == runtime
