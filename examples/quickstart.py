"""Quickstart: stand up a HarDTAPE service and pre-execute a bundle.

Walks the paper's full workflow: a chain with an ERC-20 token, the SP's
service (ORAM server + one HarDTAPE device, all protections on), remote
attestation from the user side, and one pre-executed transfer bundle.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.node.node import EthereumNode
from repro.state.account import Account, to_address
from repro.state.blocks import Transaction
from repro.workloads.contracts import erc20


def main() -> None:
    # --- the chain: a token with two funded users -----------------------
    alice, bob = to_address(0xA11CE), to_address(0xB0B)
    token = to_address(0x70CE)
    node = EthereumNode(
        genesis_accounts={
            alice: Account(balance=10**20),
            bob: Account(balance=10**20),
            token: Account(
                code=erc20.erc20_runtime(),
                storage={erc20.balance_slot(alice): 1_000_000},
            ),
        }
    )
    node.add_block([])  # seal one block so there is a tip to sync

    # --- the SP side: ORAM server + device, all protections on -----------
    service = HarDTAPEService(node, SecurityFeatures.from_level("full"))
    print(f"service up: {len(service.devices)} device(s), "
          f"{service.devices[0].config.hevm_count} HEVMs, "
          f"ORAM height {service.oram_server.height}")

    # --- the user side: attest, then pre-execute -------------------------
    client = PreExecutionClient(service.manufacturer.root_public_key)
    session = client.connect(service)
    print("attestation verified; secure channel established")

    bundle = [
        Transaction(sender=alice, to=token,
                    data=erc20.transfer_calldata(bob, 250)),
        Transaction(sender=bob, to=token,
                    data=erc20.balance_of_calldata(bob)),
    ]
    report, elapsed_us, breakdowns = client.pre_execute(service, session, bundle)

    print(f"\nbundle simulated in {elapsed_us / 1000:.1f} ms (simulated time)")
    for index, trace in enumerate(report.traces):
        print(f"  tx{index}: status={trace.status} gas={trace.gas_used} "
              f"return=0x{trace.return_data.hex()}")
    assert int.from_bytes(report.traces[1].return_data, "big") == 250
    print("\nthe second tx observed the first one's transfer -- and none of "
          "it was written on-chain:")
    onchain = node.state_at(node.height).accounts[token].storage.get(
        erc20.balance_slot(bob), 0
    )
    print(f"  bob's on-chain token balance is still {onchain}")


if __name__ == "__main__":
    main()
