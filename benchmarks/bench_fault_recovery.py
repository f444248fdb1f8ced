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

from repro.crypto.backend import available_backends
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


def test_zero_rate_identity_across_crypto_backends(benchmark, evalset):
    """The zero-rate byte-identity gate, swept over every crypto tier.

    The fault plane predates the pluggable crypto backends; a backend
    that diverged only under an armed (but silent) injector would fork
    the wire without any other gate noticing.  So: for every registered
    backend, an armed all-zero-rate run must reproduce that backend's
    unarmed baseline — and because the backends are bit-compatible by
    construction, all backends must agree with each other too.
    """

    def run():
        return {
            name: (
                run_chaos(
                    ChaosConfig(seed=SEED, fault_rate=0.0, armed=False,
                                crypto_backend=name),
                    evalset,
                ),
                run_chaos(
                    ChaosConfig(seed=SEED, fault_rate=0.0,
                                crypto_backend=name),
                    evalset,
                ),
            )
            for name in available_backends()
        }

    rows = benchmark.pedantic(run, iterations=1, rounds=1)

    lines = [
        "| backend | armed == unarmed | completed | goodput (tx/s) |",
        "|---|---|---|---|",
    ]
    for name, (unarmed, armed) in rows.items():
        lines.append(
            f"| {name} | {armed.metrics == unarmed.metrics} "
            f"| {armed.load.completed} | {armed.goodput_tps:.1f} |"
        )
    record_result(
        "fault_recovery_backends",
        "Zero-rate identity across crypto backends",
        lines,
    )

    assert set(rows) == {"reference", "hashlib"}
    for name, (unarmed, armed) in rows.items():
        assert armed.metrics == unarmed.metrics, name
        assert armed.injected_total == 0, name
    # Backends are bit-compatible: every tier serves the same run.
    baseline = next(iter(rows.values()))[1]
    for name, (_, armed) in rows.items():
        assert armed.metrics == baseline.metrics, name
        assert armed.load.completed == baseline.load.completed, name
