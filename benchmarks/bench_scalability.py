"""Experiment S1 — §VI-D scalability.

Paper analysis: three HEVMs per chip at 164.4 ms/tx ⇒ ≈ 18 tx/s per
chip, above Ethereum's ≈ 17 tx/s; the ORAM server spends ≈ 25 µs CPU per
query while each full-load HEVM issues a query every ≈ 630 µs, so one
server sustains ⌊630/25⌋ = 25 HEVMs.

We measure the same three quantities from the simulation: per-tx time,
per-chip throughput, the ORAM server's per-query CPU, and the measured
inter-query gap of a full-load HEVM.
"""

from __future__ import annotations

import pytest

from repro.core.service import HarDTAPEService
from repro.hypervisor.hypervisor import SecurityFeatures

from conftest import make_session, record_result

ETHEREUM_TPS = 17.0


@pytest.fixture(scope="module")
def scalability(evalset):
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    client, session = make_session(service)
    server = service.oram_server
    queries_before = server.stats.reads
    busy_before = server.stats.busy_time_us

    total_time_us = 0.0
    active_time_us = 0.0  # time the HEVM is busy (excludes channel crypto)
    tx_count = 0
    for tx in evalset.transactions:
        _, elapsed, breakdowns = client.pre_execute(service, session, [tx])
        total_time_us += elapsed
        active_time_us += sum(b.total_us for b in breakdowns)
        tx_count += 1

    queries = server.stats.reads - queries_before
    busy_us = server.stats.busy_time_us - busy_before
    return {
        "per_tx_us": total_time_us / tx_count,
        "hevm_busy_us": active_time_us,
        "queries": queries,
        "server_cpu_per_query_us": busy_us / max(queries, 1),
        "mean_query_gap_us": active_time_us / max(queries, 1),
    }


def test_scalability(benchmark, scalability):
    stats = benchmark(lambda: dict(scalability))

    per_tx_s = stats["per_tx_us"] / 1e6
    chip_tps = 3 * (1.0 / per_tx_s)
    gap = stats["mean_query_gap_us"]
    server_cpu = stats["server_cpu_per_query_us"]
    max_hevms_per_server = int(gap // server_cpu)

    lines = [
        "| metric | paper | simulated |",
        "|---|---|---|",
        f"| per-tx time (-full) | 164.4 ms | {per_tx_s * 1000:.1f} ms |",
        f"| chip throughput (3 HEVMs) | ≈18 tx/s | {chip_tps:.1f} tx/s |",
        f"| vs Ethereum Mainnet | ≥17 tx/s | {'sustains' if chip_tps >= ETHEREUM_TPS else 'BELOW'} {ETHEREUM_TPS} tx/s |",
        f"| ORAM server CPU/query | 25 µs | {server_cpu:.1f} µs |",
        f"| HEVM inter-query gap | 630 µs | {gap:.0f} µs |",
        f"| HEVMs per ORAM server | ⌊630/25⌋ = 25 | {max_hevms_per_server} |",
        "",
        f"ORAM queries measured: {stats['queries']}",
    ]
    record_result("scalability", "§VI-D scalability", lines)

    # Shape: the chip out-runs Ethereum, and one ORAM server carries
    # dozens of HEVMs (i.e. the server is NOT the near-term bottleneck).
    assert chip_tps >= ETHEREUM_TPS
    assert server_cpu == pytest.approx(25.0)
    assert 10 <= max_hevms_per_server <= 200
