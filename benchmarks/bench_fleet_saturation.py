"""Experiment S2 — fleet saturation curve (extends §VI-D).

The paper derives the 25-HEVM-per-ORAM-server bound analytically
(⌊630 µs / 25 µs⌋).  Here the same bound emerges from the fleet model:
HEVM transaction profiles are *measured* from the real pipeline (a
full-security service run), then a fleet of N such HEVMs — one
closed-loop tenant per core behind ``model_gateway``, the gateway S4
and serve-bench sweep — shares one ORAM server and we sweep N until
throughput stops scaling.
"""

from __future__ import annotations

import pytest

from repro.core.service import HarDTAPEService
from repro.hardware.fleet import profiles_from_breakdowns
from repro.hardware.timing import CostModel
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.serving.loadgen import model_gateway, model_sessions, run_closed_loop

from conftest import make_session, record_result

SWEEP = [1, 2, 4, 8, 16, 32, 64, 128]
TRANSACTIONS_PER_HEVM = 20


@pytest.fixture(scope="module")
def measured_profiles(evalset):
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    client, session = make_session(service)
    breakdowns = []
    for tx in evalset.transactions[:16]:
        _, _, per_tx = client.pre_execute(service, session, [tx])
        breakdowns.extend(per_tx)
    return profiles_from_breakdowns(breakdowns)


def _fleet_point(profiles, cores: int):
    gateway = model_gateway(cores, CostModel())
    report = run_closed_loop(
        gateway, model_sessions(cores, profiles),
        requests_per_session=TRANSACTIONS_PER_HEVM,
    )
    return report, gateway.executor.server, gateway.now_us


def test_fleet_saturation(benchmark, measured_profiles):
    points = benchmark.pedantic(
        lambda: [_fleet_point(measured_profiles, cores) for cores in SWEEP],
        iterations=1,
        rounds=1,
    )

    lines = [
        "| HEVMs | throughput (tx/s) | per-HEVM tx/s | server util | queue wait (µs) |",
        "|---|---|---|---|---|",
    ]
    tps = {}
    utils = {}
    for cores, (report, server, end_us) in zip(SWEEP, points):
        assert report.completed == cores * TRANSACTIONS_PER_HEVM
        tps[cores] = report.throughput_tps
        utils[cores] = server.utilization(end_us)
        lines.append(
            f"| {cores} | {tps[cores]:.1f} "
            f"| {tps[cores] / cores:.2f} "
            f"| {utils[cores]:.0%} "
            f"| {server.mean_queue_wait_us:.0f} |"
        )
    knee = next((c for c in SWEEP if utils[c] >= 0.9), SWEEP[-1])
    lines += [
        "",
        f"server saturates (util ≥ 90%) at ≈ {knee} HEVMs",
        "paper's analytic bound: ⌊630 µs / 25 µs⌋ = 25 HEVMs per server",
        "(our per-access serialization gives a longer inter-query gap, so",
        "the simulated knee sits proportionally higher — same mechanism).",
    ]
    record_result("fleet_saturation", "Fleet saturation (extends §VI-D)", lines)

    # Linear region: doubling HEVMs ~doubles throughput early on.
    assert tps[2] == pytest.approx(2 * tps[1], rel=0.15)
    # Saturation region: the last doubling gains much less than 2x.
    assert tps[SWEEP[-1]] < 1.5 * tps[SWEEP[-2]]
    # The knee is the same order of magnitude as the paper's 25.
    assert 10 <= knee <= 150
    # Utilization is monotone in fleet size.
    ordered = [utils[c] for c in SWEEP]
    assert ordered == sorted(ordered)
