"""Experiment SHARD — sharded-fleet scale-out and identity gates.

The ``repro.sharding`` acceptance criteria as a recorded benchmark:

* the seeded 1-shard fleet is byte-identical (trace, metrics, wire,
  world digest) to the unsharded baseline;
* aggregate throughput scales near-linearly — ≥ 6x at 8 shards;
* every shard's physical leaf trace defeats the frequency attack and
  passes chi-square uniformity (obliviousness survives partitioning);
* a shard add remaps ~K/N pages, nothing more.
"""

from __future__ import annotations

import pytest

from repro.sharding.bench import ShardBenchConfig, run_shard_bench

from conftest import record_result

pytestmark = pytest.mark.sharding

SEED = 1


def test_shard_scaleout_gates(benchmark):
    report = benchmark.pedantic(
        lambda: run_shard_bench(ShardBenchConfig.smoke(seed=SEED)),
        iterations=1,
        rounds=1,
    )

    lines = [f"seed {SEED}, smoke-sized fleet sweep", ""]
    lines += report.summary_lines()
    record_result(
        "shard_scaleout",
        "Sharded ORAM fleet: scale-out and identity gates",
        lines,
    )

    assert report.passed, report.gate_failures
    # Spelled out, so a regression names the broken criterion directly:
    assert all(report.identity.values())   # 1-shard fleet == unsharded, byte-for-byte
    assert report.speedup >= 6.0           # near-linear to 8 shards
    for row in report.distinguisher:       # per-shard obliviousness
        assert row["frequency_accuracy"] == 0.0
        assert row["uniformity_pvalue"] > 0.01
    shards = report.ring["shards"]
    assert report.ring["remap_fraction"] <= 2.5 / shards
