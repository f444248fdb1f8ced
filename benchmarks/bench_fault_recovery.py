"""Experiment F1 — goodput degradation under injected faults.

The fault plane's headline numbers: a closed-loop tenant mix drives the
two-device fleet while the injector fires DMA, ORAM, and HEVM faults at
escalating rates, and the recovering gateway (retry + breaker +
failover) keeps serving.  Three claims are asserted, matching the fault
plane's acceptance criteria:

* an armed all-zero-rate run reproduces the unarmed baseline
  bit-for-bit (injection is free when nothing fires);
* the same seed reproduces the same report (chaos is replayable);
* at a 5% DMA-corruption rate the gateway still completes ≥ 90% of
  bundles, with every failure accounted under a typed reason.
"""

from __future__ import annotations

from repro.faults.harness import ChaosConfig, run_chaos, run_escalation
from repro.faults.plan import FaultKind

from conftest import record_result

RATES = [0.0, 0.02, 0.05, 0.10]
SEED = 1


def _table(reports) -> list[str]:
    lines = [
        "| fault rate | injected | goodput (tx/s) | completion "
        "| recovered | failed over |",
        "|---|---|---|---|---|---|",
    ]
    for report in reports:
        lines.append(
            f"| {report.fault_rate:.0%} | {report.injected_total} "
            f"| {report.goodput_tps:.1f} | {report.completion_rate:.0%} "
            f"| {report.recovered} | {report.failed_over} |"
        )
    return lines


def test_fault_recovery_escalation(benchmark, evalset):
    def run():
        baseline = run_chaos(
            ChaosConfig(seed=SEED, fault_rate=0.0, armed=False), evalset
        )
        escalation = run_escalation(RATES, evalset, seed=SEED)
        replay = run_chaos(
            ChaosConfig(seed=SEED, fault_rate=RATES[-1]), evalset
        )
        corrupt = run_chaos(
            ChaosConfig(
                seed=SEED, fault_rate=0.05, kinds=(FaultKind.DMA_CORRUPT,)
            ),
            evalset,
        )
        return baseline, escalation, replay, corrupt

    baseline, escalation, replay, corrupt = benchmark.pedantic(
        run, iterations=1, rounds=1
    )

    lines = _table(escalation) + [
        "",
        f"5% DMA-corruption-only run: completion "
        f"{corrupt.completion_rate:.0%}, {corrupt.injected_total} injected, "
        f"{corrupt.recovered} recovered, {corrupt.failed_over} failed over",
        "",
        "determinism: armed zero-rate == unarmed baseline (bit-for-bit); "
        f"seed {SEED} replay of the {RATES[-1]:.0%} run is identical",
    ]
    for report in escalation:
        lines += ["", f"--- fault rate {report.fault_rate:.0%} ---"]
        lines += report.summary_lines()
    record_result(
        "fault_recovery",
        "Fault injection and recovery (chaos harness)",
        lines,
    )

    # Zero-rate armed run is the baseline, bit for bit.
    assert escalation[0].metrics == baseline.metrics
    assert escalation[0].injected_total == 0
    # Replayability: same (seed, rate) => same metrics.
    assert replay.metrics == escalation[-1].metrics
    # 5% DMA corruption: >= 90% of bundles still complete...
    assert corrupt.completion_rate >= 0.9
    # ...and every miss is accounted under a typed reason.
    load = corrupt.load
    assert (
        load.completed + load.failed + load.rejected
        == load.submitted
    )
    assert sum(load.failed_by_reason.values()) == load.failed
    # Goodput can only degrade as the fault rate climbs to 10%.
    assert escalation[-1].goodput_tps <= escalation[0].goodput_tps

