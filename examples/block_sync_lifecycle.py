"""Block synchronization lifecycle, including a tampering SP.

Workflow step 11: when new blocks land on-chain, HarDTAPE fetches what
each block changed from the (untrusted) Node, verifies Merkle proofs
against the block's state root, and writes the changed pages into the ORAM.
This example advances the chain, syncs, shows pre-execution tracking the
new tip — and then plays a malicious Node that serves a tampered balance,
which the Hypervisor rejects (attack A6).

Run:  python examples/block_sync_lifecycle.py
"""

from __future__ import annotations

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.hypervisor.sync import SyncError
from repro.state.blocks import Transaction
from repro.workloads.contracts import erc20
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set


def main() -> None:
    evalset = build_evaluation_set(EvaluationSetConfig(blocks=1, txs_per_block=2))
    population = evalset.population
    node = evalset.node
    service = HarDTAPEService(
        node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    client = PreExecutionClient(service.manufacturer.root_public_key)
    session = client.connect(service)
    user, peer = population.users[0], population.users[1]

    balance_query = Transaction(
        sender=user, to=population.token_a,
        data=erc20.balance_of_calldata(peer),
    )
    report, _, _ = client.pre_execute(service, session, [balance_query])
    before = int.from_bytes(report.traces[0].return_data, "big")
    print(f"synced height {service.synced_height}: peer balance = {before:,}")

    # --- a new block lands on-chain ---------------------------------------
    print("\na new block transfers 9,999 tokens to the peer on-chain...")
    node.add_block([
        Transaction(sender=user, to=population.token_a,
                    data=erc20.transfer_calldata(peer, 9_999)),
    ])
    synced = service.sync_new_blocks()
    stats = service.devices[0].hypervisor.synchronizer.stats
    print(f"synchronized {synced} block(s): "
          f"{stats.accounts_verified} accounts verified, "
          f"{stats.pages_written} ORAM pages written")

    report, _, _ = client.pre_execute(service, session, [balance_query])
    after = int.from_bytes(report.traces[0].return_data, "big")
    print(f"synced height {service.synced_height}: peer balance = {after:,}")
    assert after == before + 9_999

    # --- the SP's Node tries to lie ------------------------------------------
    print("\nnow the Node serves a tampered update (inflated balance)...")
    node.add_block([
        Transaction(sender=user, to=population.token_a,
                    data=erc20.transfer_calldata(peer, 1)),
    ])
    target = node.height
    updates = node.sync_updates_for(target)
    token = next(u for u in updates if u.address == population.token_a)
    token.slots[erc20.balance_slot(peer)] += 10**18  # the lie
    state_root = node.block_at(target).block.header.state_root
    try:
        service.devices[0].hypervisor.sync_block(state_root, updates)
    except SyncError as exc:
        print(f"Hypervisor rejected the block: {exc}")
    else:
        raise AssertionError("tampered update was accepted!")
    print("\nonly Merkle-proof-verified data ever enters the ORAM (A6 defeated).")


if __name__ == "__main__":
    main()
