"""Experiment F4 — Figure 4: end-to-end per-transaction time of Geth and
HarDTAPE at each security level (-raw, -E, -ES, -ESO, -full).

Each evaluation-set transaction runs as its own bundle (the paper's
lower-bound setting: per-bundle ECDSA amortizes over one transaction).
Times are simulated (see DESIGN.md §5); paper values for comparison:
Geth ≈ HarDTAPE-raw − 0.5 ms; +2.9 ms for E; +80 ms for ES; +30 ms for
storage ORAM; ≈164.4 ms average for -full.
"""

from __future__ import annotations

import pytest

from repro.baselines.geth import GethSimulator
from repro.core.service import HarDTAPEService
from repro.hypervisor.hypervisor import SecurityFeatures
from conftest import make_session, record_result

PAPER_MS = {
    "geth": 1.0,
    "raw": 1.5,
    "E": 4.4,
    "ES": 84.4,
    "ESO": 114.4,
    "full": 164.4,
}

LEVELS = ("raw", "E", "ES", "ESO", "full")


@pytest.fixture(scope="module")
def figure4(evalset):
    transactions = evalset.transactions
    results: dict[str, float] = {}

    geth = GethSimulator(evalset.node.state_at(evalset.node.height).copy())
    chain = evalset.node.chain_context(evalset.node.latest.block.header)
    geth_times = [
        geth.execute(chain, tx, charge_fees=False).time_us for tx in transactions
    ]
    results["geth"] = sum(geth_times) / len(geth_times)

    breakdowns_by_level = {}
    for level in LEVELS:
        service = HarDTAPEService(
            evalset.node, SecurityFeatures.from_level(level), charge_fees=False
        )
        client, session = make_session(service)
        times = []
        level_breakdowns = []
        for tx in transactions:
            _, elapsed, breakdowns = client.pre_execute(service, session, [tx])
            times.append(elapsed)
            level_breakdowns.extend(breakdowns)
        results[level] = sum(times) / len(times)
        breakdowns_by_level[level] = level_breakdowns
    return results, breakdowns_by_level


def test_figure4_per_tx_time(benchmark, figure4, evalset):
    results, breakdowns_by_level = figure4

    # Benchmark kernel: one full-security pre-execution round trip.
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    client, session = make_session(service)
    tx = evalset.transactions[0]
    benchmark.pedantic(
        lambda: client.pre_execute(service, session, [tx]),
        iterations=1,
        rounds=3,
    )

    lines = [
        "| configuration | paper (ms) | simulated (ms) |",
        "|---|---|---|",
    ]
    for name in ("geth", *LEVELS):
        lines.append(
            f"| {'Geth' if name == 'geth' else 'HarDTAPE-' + name} "
            f"| {PAPER_MS[name]:.1f} | {results[name] / 1000:.1f} |"
        )
    full = breakdowns_by_level["full"]
    n = len(full)
    lines += [
        "",
        "-full per-tx breakdown (simulated):",
        f"  execution  : {sum(b.execution_us for b in full) / n / 1000:.2f} ms",
        f"  ORAM (K-V) : {sum(b.oram_storage_us for b in full) / n / 1000:.2f} ms"
        " (paper ≈ 30 ms)",
        f"  ORAM (code): {sum(b.oram_code_us for b in full) / n / 1000:.2f} ms"
        " (paper ≈ 50 ms)",
    ]
    record_result("fig4_end_to_end", "Figure 4 — end-to-end per-tx time", lines)

    # Shape assertions, per the paper's claims:
    # (1) strict ordering of configurations;
    assert (
        results["geth"] < results["raw"] < results["E"]
        < results["ES"] < results["ESO"] < results["full"]
    )
    # (2) -raw is within ~a millisecond of Geth;
    assert results["raw"] - results["geth"] < 2_000
    # (3) encryption is cheap (single-digit ms);
    assert results["E"] - results["raw"] < 10_000
    # (4) signatures add ~80 ms;
    assert 40_000 < results["ES"] - results["E"] < 160_000
    # (5) ORAM adds tens of ms, code ORAM more than storage ORAM;
    assert results["ESO"] - results["ES"] > 5_000
    assert results["full"] - results["ESO"] > 5_000
    # (6) -full lands in the paper's order of magnitude (~100-300 ms)
    #     and under the 600 ms usability bound of §III-A.
    assert 80_000 < results["full"] < 600_000
