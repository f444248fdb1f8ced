"""MEV privacy: what the service provider sees while you pre-execute.

The paper's core threat (§I): a user simulating a DEX swap leaks *which
token they are about to trade* through world-state access patterns, and
the SP frontruns them.  This example plays both roles:

* the user pre-executes swaps that heavily favour one pool,
* the SP watches everything it legitimately can — the ORAM server's
  physical access trace — and mounts a frequency-analysis attack.

With HarDTAPE's Path ORAM the attack recovers nothing; against a
baseline encrypted-but-deterministic store the same workload is fully
de-anonymized.

Run:  python examples/frontrunning_privacy.py
"""

from __future__ import annotations

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.oram.encrypted_store import EncryptedKvStore
from repro.security.analysis import frequency_attack, path_uniformity_pvalue
from repro.security.observer import AccessPatternObserver
from repro.state.blocks import Transaction
from repro.workloads.contracts import erc20
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set


def main() -> None:
    evalset = build_evaluation_set(
        EvaluationSetConfig(blocks=1, txs_per_block=4)
    )
    population = evalset.population
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )

    # The SP's tap on its own ORAM server: every physical path access.
    spy = AccessPatternObserver().attach(service.oram_server)

    client = PreExecutionClient(service.manufacturer.root_public_key)
    session = client.connect(service)
    user = population.users[0]

    print("the user's secret intention: they only care about token A")
    spy.clear()
    hot = Transaction(sender=user, to=population.token_a,
                      data=erc20.balance_of_calldata(user))
    cold = Transaction(sender=user, to=population.token_b,
                       data=erc20.balance_of_calldata(user))
    for _ in range(12):
        client.pre_execute(service, session, [hot])
    client.pre_execute(service, session, [cold])

    leaves = spy.leaves
    print(f"\nthe SP observed {len(leaves)} ORAM path accesses")
    pvalue = path_uniformity_pvalue(leaves, service.oram_server.leaf_count, bins=8)
    print(f"chi-square uniformity p-value: {pvalue:.3f} "
          f"({'looks uniform — nothing to learn' if pvalue > 0.01 else 'BIASED'})")

    handles = [leaf.to_bytes(4, "big") for leaf in leaves]
    accuracy = frequency_attack(handles, [b"token-a-page", b"token-b-page"])
    print(f"frequency-analysis accuracy vs HarDTAPE: {accuracy:.0%}")

    # --- the strawman the paper rules out -------------------------------
    print("\nsame workload against an encrypted-but-deterministic store:")
    store = EncryptedKvStore(b"sp-visible-key-material-32-bytes")
    store.put(b"token-a-page", b"...")
    store.put(b"token-b-page", b"...")
    warmup = len(store.trace.events)
    for _ in range(12):
        store.get(b"token-a-page")
    store.get(b"token-b-page")
    trace = [event.handle for event in store.trace.events[warmup:]]
    truth = [store._handle(b"token-a-page"), store._handle(b"token-b-page")]
    accuracy = frequency_attack(trace, truth)
    print(f"frequency-analysis accuracy vs encrypted store: {accuracy:.0%}")
    print("\nthe deterministic store leaks the user's target token; the "
          "ORAM hides it.")


if __name__ == "__main__":
    main()
