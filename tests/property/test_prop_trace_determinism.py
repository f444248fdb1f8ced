"""Trace-bench determinism and exactness properties (the PR's acceptance bar).

Two identically seeded runs must produce byte-identical exports; every
sampled request's exclusive per-layer buckets must sum exactly to its
root duration (virtual time is sequential, so the partition is exact up
to float association); and at full sampling the telemetry totals must
reconcile with the cost-model accounting the simulator keeps through a
separate code path.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry.bench import (
    TOLERANCE_US,
    TraceBenchConfig,
    run_trace_bench,
)

pytestmark = pytest.mark.telemetry

# Small fleet/load so the whole module stays in tier-1 time budgets.
_SMALL = dict(device_count=2, hevms_per_device=1, tenants=2, requests_per_tenant=2)


@pytest.fixture(scope="module")
def traced_pair(tiny_evalset):
    """Two independent runs of the same seeded config."""
    config = TraceBenchConfig(seed=7, **_SMALL)
    return (
        run_trace_bench(config, tiny_evalset),
        run_trace_bench(config, tiny_evalset),
    )


def test_same_seed_produces_byte_identical_exports(traced_pair):
    first, second = traced_pair
    assert first.chrome_json == second.chrome_json
    assert first.prometheus_text == second.prometheus_text
    assert first.buckets == second.buckets


def test_chrome_export_is_valid_and_covers_every_request(traced_pair):
    report, _ = traced_pair
    document = json.loads(report.chrome_json)
    events = document["traceEvents"]
    spans = [event for event in events if event["ph"] == "X"]
    assert len(spans) == report.span_count
    rows = {
        event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    # One row per sampled request plus the control plane (attestation).
    assert rows == {"control-plane"} | {
        f"request-{n}" for n in range(1, report.sampled_requests + 1)
    }
    for event in spans:
        assert event["dur"] >= 0.0


def test_buckets_sum_exactly_to_each_root_duration(traced_pair):
    report, _ = traced_pair
    assert report.sampled_requests == report.load.submitted
    # residual_us is the max |bucket sum - root duration| over requests;
    # virtual time is sequential, so the partition is exact.
    assert report.residual_us == 0.0


def test_telemetry_reconciles_with_cost_model_accounting(traced_pair):
    report, _ = traced_pair
    assert report.reconciliation, "full sampling must produce reconciliation rows"
    tolerance = TOLERANCE_US
    for row in report.reconciliation:
        assert abs(row.delta_us) <= tolerance, (
            f"{row.name}: traced {row.traced_us} vs model {row.model_us}"
        )
    # The decomposition is non-trivial: execution and the security
    # overheads all charge real time at the -full level.
    assert report.buckets["execution"] > 0.0
    assert report.buckets["signature"] > 0.0
    assert report.buckets["oram_storage"] > 0.0


def test_partial_sampling_is_deterministic_and_a_strict_subset(tiny_evalset):
    config = TraceBenchConfig(seed=11, sample_rate=0.5, **_SMALL)
    first = run_trace_bench(config, tiny_evalset)
    second = run_trace_bench(config, tiny_evalset)
    assert first.chrome_json == second.chrome_json
    assert 0 < first.sampled_requests < first.load.submitted
    assert first.reconciliation == []  # only exact at full sampling
    # Unsampled requests leave no orphan device spans behind.
    document = json.loads(first.chrome_json)
    for event in document["traceEvents"]:
        if event["ph"] == "X":
            assert event["tid"] != 0 or event["cat"] == "session"


def test_tracing_never_perturbs_the_workload(tiny_evalset):
    """The traced run's virtual timeline equals the untraced one."""
    traced = run_trace_bench(TraceBenchConfig(seed=7, **_SMALL), tiny_evalset)
    untraced = run_trace_bench(
        TraceBenchConfig(seed=7, sample_rate=0.0, **_SMALL), tiny_evalset
    )
    assert traced.load.duration_us == untraced.load.duration_us
    assert traced.load.metrics == untraced.load.metrics
    # At rate 0 nothing request-shaped survives — only the unconditional
    # control-plane spans (attestation/DHKE at connect time) remain.
    assert untraced.sampled_requests == 0
    unsampled = json.loads(untraced.chrome_json)
    assert all(
        event["cat"] == "session"
        for event in unsampled["traceEvents"]
        if event["ph"] == "X"
    )
