"""Serving layer: metrics, admission, gateway, load drivers."""

import pytest

from repro.crypto.kdf import Drbg
from repro.hardware.fleet import OramServerLedger, full_load_profile
from repro.hardware.timing import CostModel
from repro.serving.gateway import (
    FleetModelExecutor,
    Gateway,
    GatewayConfig,
    RejectReason,
    RequestStatus,
)
from repro.serving.loadgen import (
    LoadSession,
    arrival_times,
    model_sessions,
    run_closed_loop,
    run_open_loop,
    synthetic_profiles,
)
from repro.serving.metrics import Counter, Gauge, Histogram, MetricsRegistry

pytestmark = pytest.mark.serving


class StubExecutor:
    """Fixed-duration executor: ``slots`` capacity, 100 µs per request."""

    def __init__(self, slot_count=2, service_us=100.0, devices=None):
        self.slots = devices if devices is not None else [None] * slot_count
        self.service_us = service_us
        self.executed = []

    def execute(self, request, start_us):
        self.executed.append((request.request_id, start_us))
        return self.service_us, ("ran", request.request_id)


# -- metrics --------------------------------------------------------------------------


def test_counter_and_gauge():
    counter = Counter()
    counter.inc()
    counter.inc(2.0)
    assert counter.value == 3.0
    with pytest.raises(ValueError):
        counter.inc(-1)
    gauge = Gauge()
    gauge.set(5)
    gauge.set(2)
    assert gauge.value == 2 and gauge.peak == 5


def test_histogram_nearest_rank_percentiles():
    hist = Histogram()
    for value in range(100, 0, -1):  # reversed: exercises the lazy sort
        hist.observe(float(value))
    assert hist.percentile(50) == 50.0
    assert hist.percentile(95) == 95.0
    assert hist.percentile(99) == 99.0
    assert hist.percentile(100) == 100.0
    assert hist.percentile(0) == 1.0
    assert hist.mean == 50.5
    assert hist.max == 100.0
    empty = Histogram()
    assert empty.percentile(99) == 0.0 and empty.mean == 0.0
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_registry_snapshot_is_flat_sorted_and_stable():
    registry = MetricsRegistry()
    registry.counter("b.count").inc()
    registry.gauge("a.depth").set(3)
    registry.histogram("c.wait").observe(10.0)
    snap = registry.snapshot()
    # Deterministic order: sorted within each kind (counters, gauges,
    # histograms), so two identical runs produce identical key sequences.
    assert list(snap)[:1] == ["b.count"]
    assert snap["b.count"] == 1.0
    assert snap["a.depth.peak"] == 3.0
    assert snap["c.wait.p99"] == 10.0
    assert registry.snapshot() == snap


# -- admission ---------------------------------------------------------------


def _gateway(executor=None, **config):
    executor = executor or StubExecutor()
    return Gateway(executor, GatewayConfig(**config))


def test_queue_depth_shed_policy():
    gateway = Gateway(
        StubExecutor(slot_count=1),
        GatewayConfig(
            max_in_flight_per_session=16, max_queue_depth=16, shed_depth=1
        ),
    )
    first = gateway.submit(b"s", None)    # runs (1 slot)
    second = gateway.submit(b"s", None)   # queues (depth 1)
    shed = gateway.submit(b"s", None)
    assert first.status == RequestStatus.RUNNING
    assert second.status == RequestStatus.QUEUED
    assert shed.reject_reason == RejectReason.SHED_QUEUE_DEPTH


def test_policy_constructor_validation():
    with pytest.raises(ValueError):
        GatewayConfig(shed_depth=0)


# -- gateway lifecycle ----------------------------------------------------------------


def test_dispatch_runs_immediately_when_slots_free():
    executor = StubExecutor(slot_count=2)
    gateway = Gateway(executor)
    request = gateway.submit(b"s", "payload")
    assert request.status == RequestStatus.RUNNING
    assert request.queue_wait_us == 0.0
    done = gateway.drain()
    assert done == [request]
    assert request.status == RequestStatus.COMPLETED
    assert request.result == ("ran", request.request_id)
    assert request.latency_us == pytest.approx(100.0)


def test_queue_bound_rejects_and_session_cap_rejects():
    gateway = _gateway(
        StubExecutor(slot_count=1),
        max_queue_depth=2, max_in_flight_per_session=2,
    )
    gateway.submit(b"a", None)                 # running
    gateway.submit(b"a", None)                 # queued; session a at cap
    capped = gateway.submit(b"a", None)
    assert capped.reject_reason == RejectReason.SESSION_LIMIT
    gateway.submit(b"b", None)                 # queued; queue full (depth 2)
    full = gateway.submit(b"c", None)
    assert full.reject_reason == RejectReason.QUEUE_FULL
    assert gateway.metrics.counter(
        "gateway.rejected", reason=RejectReason.QUEUE_FULL
    ).value == 1.0


def test_device_affinity_defers_until_matching_slot_frees():
    executor = StubExecutor(devices=[0, 1])
    gateway = Gateway(executor, GatewayConfig(max_in_flight_per_session=16))
    on_zero = gateway.submit(b"s", None, device_index=0)
    blocked = gateway.submit(b"s", None, device_index=0)  # dev 1 free, no match
    assert on_zero.status == RequestStatus.RUNNING
    assert blocked.status == RequestStatus.QUEUED
    anywhere = gateway.submit(b"t", None)                 # takes device 1
    assert anywhere.status == RequestStatus.RUNNING
    gateway.drain()
    assert blocked.status == RequestStatus.COMPLETED
    assert blocked.started_at_us == pytest.approx(100.0)


def test_submissions_cannot_move_backwards_in_time():
    gateway = _gateway()
    gateway.submit(b"s", None, at_us=100.0)
    with pytest.raises(ValueError):
        gateway.submit(b"s", None, at_us=50.0)


def test_load_view():
    gateway = Gateway(StubExecutor(slot_count=2))
    gateway.submit(b"s", None)
    assert gateway.in_flight == 1 and gateway.queue_depth == 0
    assert gateway.reactor.peek_next_us() == pytest.approx(100.0)
    gateway.drain()
    assert gateway.in_flight == 0


# -- load drivers ---------------------------------------------------------------------


def test_arrival_patterns():
    rng = Drbg(b"\x01" * 8, personalization=b"test-arrivals")
    rng_a = Drbg(b"\x02" * 8)
    rng_b = Drbg(b"\x02" * 8)
    poisson_a = list(arrival_times(1000.0, 50, rng_a))
    poisson_b = list(arrival_times(1000.0, 50, rng_b))
    assert poisson_a == poisson_b                    # seeded determinism
    assert poisson_a == sorted(poisson_a)
    mean_gap = poisson_a[-1] / len(poisson_a)
    assert 500.0 < mean_gap < 2000.0                 # ~1000 µs nominal
    with pytest.raises(ValueError):
        list(arrival_times(0.0, 1, rng))


def test_closed_loop_completes_all_requests():
    gateway = Gateway(StubExecutor(slot_count=2),
                      GatewayConfig(max_in_flight_per_session=4))
    sessions = [
        LoadSession(session_id=b"a", make_payload=lambda i: i),
        LoadSession(session_id=b"b", make_payload=lambda i: i),
    ]
    report = run_closed_loop(gateway, sessions, requests_per_session=5)
    assert report.submitted == 10
    assert report.completed == 10
    assert report.rejected == 0
    assert report.shed_rate == 0.0
    assert report.duration_us == pytest.approx(5 * 100.0)
    assert report.throughput_tps == pytest.approx(10 / (500.0 / 1e6))


def test_closed_loop_keeps_one_request_in_flight_per_session():
    gateway = Gateway(StubExecutor(slot_count=4),
                      GatewayConfig(max_in_flight_per_session=4))
    sessions = [LoadSession(session_id=b"a", make_payload=lambda i: i)]
    report = run_closed_loop(gateway, sessions, requests_per_session=6)
    assert report.completed == 6
    # Free slots go unused: one request at a time, each issued the
    # instant the last finished, 6 × 100 µs of service back to back.
    assert report.duration_us == pytest.approx(600.0)


def test_open_loop_sheds_under_overload_with_typed_reasons():
    gateway = Gateway(
        StubExecutor(slot_count=1, service_us=1000.0),
        GatewayConfig(max_queue_depth=2, max_in_flight_per_session=64),
    )
    sessions = [LoadSession(session_id=b"a", make_payload=lambda i: i)]
    report = run_open_loop(
        gateway, sessions, rate_rps=10_000.0, total_requests=100, seed=5
    )
    assert report.submitted == 100
    assert report.completed + report.rejected == 100
    assert report.rejected > 0
    assert set(report.rejected_by_reason) <= set(RejectReason.ALL)
    assert 0.0 < report.shed_rate < 1.0


def test_model_executor_runs_fleet_profiles():
    cost = CostModel(ethernet_rtt_us=0.0)
    executor = FleetModelExecutor(core_count=2, cost=cost)
    gateway = Gateway(executor, GatewayConfig(max_in_flight_per_session=4))
    sessions = model_sessions(2, synthetic_profiles(cost, "full-load"))
    report = run_closed_loop(gateway, sessions, requests_per_session=3)
    assert report.completed == 6
    profile = full_load_profile(cost)
    # Two cores cannot saturate the server: latency ~= unloaded walk.
    unloaded = profile.exec_us + profile.oram_queries * cost.oram_server_cpu_us
    assert report.latency_percentile_us(50) == pytest.approx(unloaded, rel=0.05)
    with pytest.raises(ValueError):
        FleetModelExecutor(core_count=0)


def test_synthetic_profile_kinds():
    cost = CostModel()
    full = synthetic_profiles(cost, "full-load", count=3)
    assert len(full) == 3 and len({p.oram_queries for p in full}) == 1
    mixed_a = synthetic_profiles(cost, "mixed", count=6, seed=9)
    mixed_b = synthetic_profiles(cost, "mixed", count=6, seed=9)
    assert mixed_a == mixed_b
    assert len({p.oram_queries for p in mixed_a}) > 1
    with pytest.raises(ValueError):
        synthetic_profiles(cost, "nope")


# -- the ledger approximation ---------------------------------------------------------


def test_ledger_below_capacity_adds_no_wait():
    ledger = OramServerLedger(service_us=25.0)
    # Arrivals 1 ms apart: the server is idle each time.
    assert ledger.serve(0.0) == pytest.approx(25.0)
    assert ledger.serve(1000.0) == pytest.approx(1025.0)
    assert ledger.queue_wait_us == pytest.approx(0.0)


def test_ledger_over_capacity_cascades():
    ledger = OramServerLedger(service_us=60.0)
    first = ledger.serve(0.0)
    second = ledger.serve(0.0)   # same instant: bucket overflows forward
    assert first == pytest.approx(60.0)
    assert second > first
    assert ledger.queries_served == 2
    assert ledger.busy_us == pytest.approx(120.0)
    assert ledger.queue_wait_us > 0.0


def test_forgetting_the_past_changes_no_completion():
    """``forget_before`` drops only buckets no later arrival reads: the
    same arrivals get the same completions with and without it, across
    a cascade and a long idle jump."""
    kept = OramServerLedger(service_us=60.0)
    pruned = OramServerLedger(service_us=60.0)
    for start in [0.0, 0.0, 30.0, 150.0, 150.0, 420.0, 5e6, 5e6 + 10.0]:
        pruned.forget_before(start)
        for offset in (0.0, 40.0, 250.0):
            assert pruned.serve(start + offset) == kept.serve(start + offset)
    assert len(pruned._committed) < len(kept._committed)
    assert min(pruned._committed) >= int(5e6 // 100.0)


def test_ledger_completion_never_beats_service_time():
    ledger = OramServerLedger(service_us=25.0)
    ledger.serve(0.0)
    # Arrive mid-bucket: earlier committed work must not let this query
    # finish before arrival + service.
    completion = ledger.serve(90.0)
    assert completion >= 90.0 + 25.0
