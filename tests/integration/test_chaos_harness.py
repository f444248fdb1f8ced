"""The chaos harness end to end: determinism, recovery, accounting.

These are the ISSUE's acceptance criteria as tests: an armed all-zero
plan reproduces the unarmed baseline bit-for-bit, the same seed
reproduces the same report, a 5% DMA-corruption run still completes
≥ 90% of bundles, and every non-completion carries a typed reason —
no silent drops anywhere.
"""

import pytest

from repro.faults.harness import ChaosConfig, run_chaos
from repro.faults.plan import FaultKind

pytestmark = pytest.mark.faults

# Small fleet/load so the whole module stays in tier-1 time budgets.
_SMALL = dict(tenants=2, requests_per_tenant=3)


def test_zero_rate_armed_run_matches_unarmed_baseline(tiny_evalset):
    armed = run_chaos(
        ChaosConfig(seed=3, fault_rate=0.0, armed=True, **_SMALL), tiny_evalset
    )
    unarmed = run_chaos(
        ChaosConfig(seed=3, fault_rate=0.0, armed=False, **_SMALL), tiny_evalset
    )
    assert armed.injected_total == 0
    # The armed-but-quiet injector perturbed *nothing*: every metric —
    # latency histograms included — is bit-for-bit the baseline's.
    assert armed.metrics == unarmed.metrics
    assert armed.load.completed == unarmed.load.completed
    assert armed.goodput_tps == unarmed.goodput_tps


def test_same_seed_reproduces_chaos_bit_for_bit(tiny_evalset):
    config = dict(seed=9, fault_rate=0.05, **_SMALL)
    first = run_chaos(ChaosConfig(**config), tiny_evalset)
    second = run_chaos(ChaosConfig(**config), tiny_evalset)
    assert first.metrics == second.metrics
    assert first.injected_by_kind == second.injected_by_kind
    assert first.goodput_tps == second.goodput_tps
    assert first.completion_rate == second.completion_rate


def test_dma_corruption_mostly_recovered_and_fully_accounted(tiny_evalset):
    report = run_chaos(
        ChaosConfig(seed=1, fault_rate=0.05, kinds=(FaultKind.DMA_CORRUPT,)),
        tiny_evalset,
    )
    load = report.load
    # Closed accounting: every submission ends in exactly one typed bin.
    assert (
        load.completed + load.failed + load.rejected
        == load.submitted
    )
    assert sum(load.failed_by_reason.values()) == load.failed
    # ≥ 90% of bundles complete despite the corruption (via retry/failover).
    assert report.completion_rate >= 0.9
    # Injections flow through the metrics registry, not a side channel.
    assert report.metrics.get("faults.injected", 0.0) == report.injected_total
    if report.injected_total:
        assert report.metrics["faults.injected{kind=dma-corrupt}"] > 0
        assert report.recovered >= 1
