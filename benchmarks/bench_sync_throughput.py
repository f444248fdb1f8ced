"""Experiment S3 — block-synchronization throughput (§VI-D's second half).

The paper: "at least two HarDTAPE instances (one for pre-execution and
one for block synchronization) are enough to run the pre-execution
service."  For that to hold, synchronizing one block — Merkle-verifying
what it changed in every touched account and read-modify-writing those
pages in the ORAM — must fit comfortably inside Ethereum's ~12 s block
interval.

We grow the chain with realistic blocks and measure the simulated sync
time per block on the dedicated device.
"""

from __future__ import annotations

import pytest

from repro.core.service import HarDTAPEService
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

from conftest import record_result

BLOCK_INTERVAL_S = 12.0


@pytest.fixture(scope="module")
def sync_measurements():
    evalset = build_evaluation_set(
        EvaluationSetConfig(blocks=2, txs_per_block=8)
    )
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    device = service.devices[0]
    stats = device.hypervisor.synchronizer.stats
    rows = []
    for _ in range(4):
        # A fresh realistic block lands on-chain...
        evalset.node.add_block(evalset.transactions[:8])
        accounts, pages = stats.accounts_verified, stats.pages_written
        started = device.clock.now_us
        service.sync_new_blocks()
        rows.append((
            service.synced_height,
            stats.accounts_verified - accounts,
            stats.pages_written - pages,
            device.clock.now_us - started,
        ))
    return rows


def test_block_sync_fits_block_interval(benchmark, sync_measurements):
    rows = benchmark(lambda: list(sync_measurements))

    lines = [
        "| block | accounts verified | ORAM pages written | sync time |",
        "|---|---|---|---|",
    ]
    worst_us = 0.0
    for block, accounts, pages, elapsed_us in rows:
        worst_us = max(worst_us, elapsed_us)
        lines.append(
            f"| #{block} | {accounts} | {pages} | {elapsed_us / 1000:.0f} ms |"
        )
    lines += [
        "",
        f"worst block: {worst_us / 1e6:.2f} s of a {BLOCK_INTERVAL_S:.0f} s "
        "block interval "
        f"({worst_us / 1e6 / BLOCK_INTERVAL_S:.0%} duty cycle)",
        "",
        "paper §VI-D: one dedicated device synchronizes blocks while the",
        "others pre-execute — it must (and does) keep up with ~12 s blocks.",
    ]
    record_result("sync_throughput", "Block-sync throughput (§VI-D)", lines)

    # Every block syncs well inside the block interval.
    assert worst_us < BLOCK_INTERVAL_S * 1e6 * 0.5
    # And the cost is dominated by ORAM page writes, which scale with
    # what the block changed, not the accounts' size or the chain length.
    assert all(pages > 0 for _, _, pages, _ in rows)
