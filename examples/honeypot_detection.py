"""Scam detection: pre-execute a deposit/withdraw bundle on a honeypot.

The paper's motivating scenario (§I): scam contracts — phishing, Ponzi,
honeypots — defraud users who cannot evaluate a contract's behaviour
before sending funds.  A honeypot advertises deposit()/withdraw() but a
hidden owner check makes withdraw revert for everyone else.

A victim who pre-executes the *whole strategy as one bundle* sees the
withdraw fail in the trace and keeps their funds; the on-chain state is
never touched.

Run:  python examples/honeypot_detection.py
"""

from __future__ import annotations

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.node.node import EthereumNode
from repro.state.account import Account, to_address
from repro.state.blocks import Transaction
from repro.workloads.contracts import honeypot


def main() -> None:
    victim = to_address(0x7157)
    scammer = to_address(0xBAD)
    trap = to_address(0x7A9)
    node = EthereumNode(
        genesis_accounts={
            victim: Account(balance=10**20),
            scammer: Account(balance=10**20),
            trap: Account(
                code=honeypot.honeypot_runtime(),
                # The trap: slot 1 holds the hidden owner.
                storage={honeypot.OWNER_SLOT: int.from_bytes(scammer, "big")},
            ),
        }
    )
    node.add_block([])

    service = HarDTAPEService(node, SecurityFeatures.from_level("full"))
    client = PreExecutionClient(service.manufacturer.root_public_key)
    session = client.connect(service)

    print("the victim's intended strategy: deposit 1 ETH, withdraw it back")
    strategy = [
        Transaction(sender=victim, to=trap,
                    data=honeypot.deposit_calldata(), value=10**18),
        Transaction(sender=victim, to=trap,
                    data=honeypot.withdraw_calldata()),
    ]
    report, _, _ = client.pre_execute(service, session, strategy)

    deposit, withdraw = report.traces
    print(f"  deposit : status={deposit.status} (funds would be accepted)")
    print(f"  withdraw: status={withdraw.status} "
          f"error={withdraw.error!r}")
    assert deposit.status == 1 and withdraw.status == 0

    print("\nverdict: the withdraw REVERTS -- this contract is a honeypot.")
    print("the victim aborts; their on-chain balance is untouched:")
    balance = node.state_at(node.height).accounts[victim].balance
    print(f"  victim balance: {balance / 10**18:.0f} ETH")

    # The scammer, for contrast, can pre-execute their own exit.
    exit_report, _, _ = client.pre_execute(
        service,
        PreExecutionClient(service.manufacturer.root_public_key).connect(service),
        [
            Transaction(sender=scammer, to=trap,
                        data=honeypot.deposit_calldata(), value=1),
            Transaction(sender=scammer, to=trap,
                        data=honeypot.withdraw_calldata()),
        ],
    )
    print(f"\n(the hidden owner's withdraw pre-executes with "
          f"status={exit_report.traces[1].status} — the trap is one-sided)")


if __name__ == "__main__":
    main()
