"""SP capacity planning with the fleet model (§VI-D in practice).

An SP wants to know: how many HarDTAPE chips can one ORAM server carry,
and what response times will users see as the fleet grows?  This example
measures real transaction profiles from the pipeline, then sweeps fleet
sizes through the serving layer's model gateway (one closed-loop tenant
per HEVM, all sharing one ORAM server) — the dynamic version of the
paper's ⌊630 µs / 25 µs⌋ = 25 HEVMs/server bound.

Run:  python examples/capacity_planning.py
"""

from __future__ import annotations

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hardware.fleet import profiles_from_breakdowns
from repro.hardware.timing import CostModel
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.serving.loadgen import model_gateway, model_sessions, run_closed_loop
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

ETHEREUM_TPS = 17.0


def main() -> None:
    print("measuring transaction profiles from the live pipeline...")
    evalset = build_evaluation_set(EvaluationSetConfig(blocks=2, txs_per_block=6))
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    client = PreExecutionClient(service.manufacturer.root_public_key)
    session = client.connect(service)
    breakdowns = []
    for tx in evalset.transactions:
        _, _, per_tx = client.pre_execute(service, session, [tx])
        breakdowns.extend(per_tx)
    profiles = profiles_from_breakdowns(breakdowns)
    mean_queries = sum(p.oram_queries for p in profiles) / len(profiles)
    print(f"  {len(profiles)} profiles; mean {mean_queries:.1f} ORAM "
          f"queries per transaction\n")

    print(f"{'HEVMs':>6} {'chips':>6} {'tx/s':>8} {'vs Mainnet':>11} "
          f"{'server util':>12} {'queue wait':>11}")
    sweep = [3, 6, 12, 24, 48, 96, 144]
    knee = sweep[-1]
    for hevms in sweep:
        gateway = model_gateway(hevms, CostModel())
        report = run_closed_loop(
            gateway, model_sessions(hevms, profiles), requests_per_session=15
        )
        server = gateway.executor.server
        utilization = server.utilization(gateway.now_us)
        if utilization >= 0.9:
            knee = min(knee, hevms)
        verdict = (
            f"{report.throughput_tps / ETHEREUM_TPS:.0f}x"
            if report.throughput_tps >= ETHEREUM_TPS else "below!"
        )
        print(f"{hevms:>6} {hevms // 3:>6} "
              f"{report.throughput_tps:>8.1f} {verdict:>11} "
              f"{utilization:>11.0%} "
              f"{server.mean_queue_wait_us:>9.0f}µs")

    print(f"\nthe ORAM server saturates around {knee} HEVMs "
          f"({knee // 3} chips); beyond that, add servers, not chips.")
    print("(the paper's analytic bound for its measured 630 µs query gap "
          "was 25 HEVMs — same mechanism, different gap.)")


if __name__ == "__main__":
    main()
