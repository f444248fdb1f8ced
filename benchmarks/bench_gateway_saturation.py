"""Experiment S4 — gateway saturation through the serving layer (§VI-D).

S2 sweeps HEVM transaction profiles measured from the real pipeline;
this experiment drives the same fleet model (``model_gateway``) with
the paper's synthetic full-load profile: closed-loop tenants at
increasing fleet sizes, and throughput scales linearly until the shared
ORAM server saturates — the paper's ⌊630 µs / 25 µs⌋ ≈ 25 full-load
HEVMs.  An open-loop overload section then offers ~2× capacity and
shows admission control degrading gracefully: typed sheds, bounded
queue waits, no unhandled exceptions.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.serving

from repro.hardware.timing import CostModel
from repro.serving.gateway import RejectReason, RequestStatus
from repro.serving.loadgen import (
    model_gateway,
    model_sessions,
    run_closed_loop,
    run_open_loop,
    synthetic_profiles,
)

from conftest import record_result

SWEEP = [5, 10, 15, 20, 25, 30, 40, 50]
REQUESTS_PER_SESSION = 40

# Zero RTT isolates the server-CPU bottleneck, as in the paper's
# analytic bound; a nonzero RTT only stretches per-tx latency.
COST = CostModel(ethernet_rtt_us=0.0)


def _closed_loop_point(cores: int, requests: int = REQUESTS_PER_SESSION):
    gateway = model_gateway(cores, COST)
    sessions = model_sessions(cores, synthetic_profiles(COST, "full-load"))
    report = run_closed_loop(
        gateway, sessions, requests_per_session=requests
    )
    return report, gateway.executor.server.utilization(gateway.now_us)


def _overload_run(cores: int, seed: int = 7):
    gateway = model_gateway(cores, COST, shed_depth=2 * cores)
    sessions = model_sessions(cores, synthetic_profiles(COST, "full-load"))
    capacity_rps = 1e6 / COST.oram_server_cpu_us / 16  # queries/s ÷ q-per-tx
    return run_open_loop(
        gateway, sessions,
        rate_rps=2.0 * capacity_rps,
        total_requests=30 * cores,
        seed=seed,
    )


def test_gateway_saturation(benchmark):
    points = benchmark.pedantic(
        lambda: [_closed_loop_point(cores) for cores in SWEEP],
        iterations=1, rounds=1,
    )

    lines = [
        "| HEVMs | throughput (tx/s) | per-HEVM tx/s | server util "
        "| latency p50/p95/p99 (ms) |",
        "|---|---|---|---|---|",
    ]
    for cores, (report, util) in zip(SWEEP, points):
        lats = "/".join(
            f"{report.latency_percentile_us(p) / 1000:.1f}"
            for p in (50, 95, 99)
        )
        lines.append(
            f"| {cores} | {report.throughput_tps:.1f} "
            f"| {report.throughput_tps / cores:.2f} "
            f"| {util:.0%} | {lats} |"
        )

    by_cores = {c: r for c, (r, _) in zip(SWEEP, points)}
    utils = {c: u for c, (_, u) in zip(SWEEP, points)}
    knee = next(
        (c for c in SWEEP if utils[c] >= 0.9), SWEEP[-1]
    )

    overload = _overload_run(25)
    lines += [
        "",
        f"server saturates (util ≥ 90%) at ≈ {knee} gateway-fed HEVMs",
        "paper's analytic bound: ⌊630 µs / 25 µs⌋ = 25 HEVMs per server",
        "",
        "open-loop overload at 2× capacity (25 HEVMs):",
    ] + [f"  {line}" for line in overload.summary_lines()]
    record_result(
        "gateway_saturation",
        "Gateway saturation (serving layer, §VI-D)",
        lines,
    )

    # Linear region: per-HEVM throughput barely degrades up to 20 cores.
    assert by_cores[20].throughput_tps == pytest.approx(
        4 * by_cores[5].throughput_tps, rel=0.05
    )
    # The knee lands on the paper's analytic bound.
    assert 20 <= knee <= 30
    # Saturation region: 25% more cores past the knee gain almost nothing.
    assert by_cores[50].throughput_tps < 1.05 * by_cores[40].throughput_tps
    # Utilization is monotone in fleet size and ends pinned near 1.
    ordered = [utils[c] for c in SWEEP]
    assert ordered == sorted(ordered)
    assert ordered[-1] > 0.95


def test_gateway_overload_sheds_typed(benchmark):
    report = benchmark.pedantic(
        lambda: _overload_run(25), iterations=1, rounds=1
    )
    # Offered load is 2× capacity: roughly half the work must be shed,
    # every shed carries a typed reason, and nothing raises.
    assert report.shed_rate > 0.3
    assert report.completed > 0
    assert set(report.rejected_by_reason) <= set(RejectReason.ALL)
    assert RejectReason.SHED_QUEUE_DEPTH in report.rejected_by_reason
    for request in report.outcomes:
        assert request.status in (
            RequestStatus.COMPLETED,
            RequestStatus.REJECTED,
        )
        if request.status == RequestStatus.REJECTED:
            assert request.reject_reason in RejectReason.ALL


def test_gateway_run_is_deterministic(benchmark):
    def twice():
        first, _ = _closed_loop_point(25, requests=20)
        second, _ = _closed_loop_point(25, requests=20)
        return first, second

    first, second = benchmark.pedantic(twice, iterations=1, rounds=1)
    assert first.metrics == second.metrics
    assert first.throughput_tps == second.throughput_tps
    assert _overload_run(25, seed=3).metrics == _overload_run(25, seed=3).metrics
