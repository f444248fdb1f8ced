"""Gateway ↔ service integration: functional parity, routing, overload,
and typed failure recovery (retry, failover, exhausted attempts)."""

import pytest

pytestmark = pytest.mark.serving

from repro.core.service import HarDTAPEService, NoIdleHevmError
from repro.core.user import PreExecutionClient
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.faults.policy import FailoverBundle, RetryPolicy
from repro.hypervisor.bundle_codec import (
    TransactionBundle,
    decode_trace_report,
    encode_bundle,
)
from repro.hypervisor.hypervisor import SecurityFeatures, UnknownSessionError
from repro.serving.gateway import (
    Gateway,
    GatewayConfig,
    RejectReason,
    RequestStatus,
    ServiceExecutor,
)
from repro.serving.metrics import MetricsRegistry


def _service(evalset, **kwargs):
    return HarDTAPEService(
        evalset.node,
        SecurityFeatures.from_level("full"),
        charge_fees=False,
        **kwargs,
    )


def _connect(service, device=None, seed=b"\x09" * 32):
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=seed
    )
    return client, client.connect(service, device)


def _sealed_payload(service, session, transactions):
    """A zero-arg callable sealing the bundle at dispatch time.

    Sealing late keeps the secure channel's strictly increasing nonces
    aligned with dispatch order (the gateway may reorder submissions).
    """
    bundle = TransactionBundle(
        transactions=tuple(transactions),
        block_number=service.synced_height,
    )

    def seal():
        return session.channel.seal(encode_bundle(bundle))

    return bundle, seal


def _open_report(session, bundle, sealed_out):
    report = decode_trace_report(session.channel.open(sealed_out))
    assert report.bundle_id == bundle.bundle_id()
    return report


def test_gateway_results_match_direct_path(tiny_evalset):
    transactions = tiny_evalset.transactions[:4]

    # Direct path: one service, pre_execute each tx.
    direct_service = _service(tiny_evalset)
    client, session = _connect(direct_service)
    direct = [
        client.pre_execute(direct_service, session, [tx])[0].traces[0]
        for tx in transactions
    ]

    # Gateway path: a separate but identically configured service.
    gw_service = _service(tiny_evalset)
    device = gw_service.pick_device()
    device_index = gw_service.devices.index(device)
    _, gw_session = _connect(gw_service, device)
    gateway = Gateway(
        ServiceExecutor(gw_service),
        # One in flight per session: completion order == submit order,
        # so the channel's report nonces open in sequence.
        GatewayConfig(max_in_flight_per_session=1),
    )
    via_gateway = []
    for tx in transactions:
        bundle, seal = _sealed_payload(gw_service, gw_session, [tx])
        request = gateway.submit(
            gw_session.session_id, seal, device_index=device_index
        )
        assert request.status != RequestStatus.REJECTED
        gateway.drain()
        assert request.status == RequestStatus.COMPLETED
        report = _open_report(gw_session, bundle, request.result)
        via_gateway.append(report.traces[0])

    for direct_trace, gateway_trace in zip(direct, via_gateway):
        assert gateway_trace.status == direct_trace.status
        assert gateway_trace.gas_used == direct_trace.gas_used
        assert gateway_trace.return_data == direct_trace.return_data


def test_gateway_tracks_service_clock_and_waits(tiny_evalset):
    service = _service(tiny_evalset)
    device = service.devices[0]
    _, session = _connect(service, device)
    gateway = Gateway(
        ServiceExecutor(service),
        GatewayConfig(max_in_flight_per_session=1),
    )
    bundle, seal = _sealed_payload(
        service, session, [tiny_evalset.transactions[0]]
    )
    request = gateway.submit(session.session_id, seal, device_index=0)
    gateway.drain()
    # Service time is the SimClock delta of the real pipeline.
    assert request.service_us is not None and request.service_us > 0
    assert request.latency_us == pytest.approx(request.service_us)
    snapshot = gateway.metrics.snapshot()
    assert snapshot["gateway.completed"] == 1.0
    assert snapshot["gateway.service_us.count"] == 1.0


def test_overload_queues_then_sheds_with_typed_reasons(tiny_evalset):
    service = _service(tiny_evalset)
    device = service.devices[0]
    capacity = device.config.hevm_count
    gateway = Gateway(
        ServiceExecutor(service),
        GatewayConfig(max_queue_depth=2, max_in_flight_per_session=1),
    )
    sessions = [
        _connect(service, device, seed=bytes([index + 1]) * 32)[1]
        for index in range(capacity + 4)
    ]
    requests, bundles = [], {}
    for session in sessions:
        bundle, seal = _sealed_payload(
            service, session, [tiny_evalset.transactions[0]]
        )
        request = gateway.submit(session.session_id, seal, device_index=0)
        requests.append((session, request))
        bundles[request.request_id] = bundle

    statuses = [request.status for _, request in requests]
    assert statuses.count(RequestStatus.RUNNING) == capacity
    assert statuses.count(RequestStatus.QUEUED) == 2
    rejected = [
        request for _, request in requests
        if request.status == RequestStatus.REJECTED
    ]
    assert len(rejected) == 2
    assert {request.reject_reason for request in rejected} == {
        RejectReason.QUEUE_FULL
    }

    gateway.drain()
    for session, request in requests:
        if request.status == RequestStatus.COMPLETED:
            report = _open_report(
                session, bundles[request.request_id], request.result
            )
            assert report.traces[0].status == 1
    completed = sum(
        1 for _, request in requests
        if request.status == RequestStatus.COMPLETED
    )
    assert completed == capacity + 2           # everyone admitted finished


def test_pick_device_raises_typed_error_when_saturated(tiny_evalset):
    service = _service(tiny_evalset)
    scheduler = service.devices[0].hypervisor.scheduler
    held = []
    while service.devices[0].idle_hevms:
        held.append(scheduler.acquire(b"hog", 0.0))
    assert service.try_pick_device() is None
    with pytest.raises(NoIdleHevmError):
        service.pick_device()
    scheduler.release(held[0].core)
    assert service.pick_device() is service.devices[0]


def test_unknown_session_bounces_with_typed_error(tiny_evalset):
    service = _service(tiny_evalset)
    _, session = _connect(service)
    bundle = TransactionBundle(
        transactions=(tiny_evalset.transactions[0],),
        block_number=service.synced_height,
    )
    sealed = session.channel.seal(encode_bundle(bundle))
    bogus = b"\x00" * len(session.session_id)
    with pytest.raises(UnknownSessionError) as excinfo:
        service.submit_bundle(service.devices[0], bogus, sealed)
    assert bogus.hex() in str(excinfo.value)
    assert isinstance(excinfo.value, KeyError)  # compat with old handlers
    assert service.stats.unknown_sessions == 1
    assert service.stats.bundles_served == 0


def test_failover_redispatches_crashed_bundle_to_other_device(tiny_evalset):
    service = _service(tiny_evalset, device_count=2)
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x21" * 32
    )
    # The tenant attests a session on every device so its bundle can run
    # anywhere; the payload re-seals per attempt for the target channel.
    sessions = {
        index: client.connect(service, device)
        for index, device in enumerate(service.devices)
    }
    metrics = MetricsRegistry()
    # The very first transaction start crashes its core — exactly once.
    plan = FaultPlan(5, [FaultRule(FaultKind.HEVM_CRASH, rate=1.0, max_fires=1)])
    FaultInjector(plan, metrics).arm_service(service)

    gateway = Gateway(
        ServiceExecutor(service, RetryPolicy(), metrics=metrics),
        GatewayConfig(max_in_flight_per_session=1),
        metrics=metrics,
    )
    bundle = TransactionBundle(
        transactions=(tiny_evalset.transactions[0],),
        block_number=service.synced_height,
    )
    payload = FailoverBundle(sessions, encode_bundle(bundle))
    request = gateway.submit(sessions[0].session_id, payload, device_index=0)
    gateway.drain()

    assert request.status == RequestStatus.COMPLETED
    recovery = request.recovery
    assert recovery.attempts == 2
    assert recovery.recovered_errors == ["HevmCrashError"]
    assert recovery.failover is not None
    assert recovery.failover.from_device == 0
    assert recovery.failover.to_device == 1
    # The trace opens under the channel of the device that finished it.
    report = decode_trace_report(payload.open_with(1, request.result))
    assert report.bundle_id == bundle.bundle_id()
    assert report.traces[0].status == 1

    snapshot = metrics.snapshot()
    assert snapshot["faults.injected{kind=hevm-crash}"] == 1.0
    assert snapshot["recovery.errors{error=HevmCrashError}"] == 1.0
    assert snapshot["recovery.recovered"] == 1.0
    assert snapshot["gateway.failover"] == 1.0
    assert snapshot["faults.outcome{outcome=FailedOverError}"] == 1.0
    assert snapshot["gateway.completed"] == 1.0


def test_exhausted_recovery_surfaces_typed_gateway_failure(tiny_evalset):
    # With a retry policy the attempts are wrapped; without any policy
    # the one attempt's raw typed error reaches the gateway.  Either way
    # the slot was occupied for as long as the attempts took.
    for retry, error_type, attempts in (
        (RetryPolicy(max_attempts=2, backoff_us=50.0), "BundleFailedError", 2),
        (None, "HevmCrashError", 1),
    ):
        service = _service(tiny_evalset)  # one device: nowhere to fail over
        _, session = _connect(service)
        metrics = MetricsRegistry()
        plan = FaultPlan(6, [FaultRule(FaultKind.HEVM_CRASH, rate=1.0)])
        FaultInjector(plan, metrics).arm_service(service)
        gateway = Gateway(
            ServiceExecutor(service, retry, metrics=metrics),
            GatewayConfig(max_in_flight_per_session=1),
            metrics=metrics,
        )
        _, seal = _sealed_payload(
            service, session, [tiny_evalset.transactions[0]]
        )
        before_us = service.clock.now_us
        request = gateway.submit(session.session_id, seal, device_index=0)
        gateway.drain()

        assert request.status == RequestStatus.FAILED
        assert request.failure is not None
        assert request.failure.error_type == error_type
        assert request.failure.cause_type == "HevmCrashError"
        assert request.failure.attempts == attempts
        assert request.recovery.attempts == attempts
        assert request.service_us == service.clock.now_us - before_us > 0
        assert request.finished_at_us == request.started_at_us + request.service_us
        snapshot = metrics.snapshot()
        assert snapshot["gateway.failed"] == 1.0
        assert snapshot["gateway.failed{cause=HevmCrashError}"] == 1.0
        assert snapshot.get("gateway.completed", 0.0) == 0.0
        assert ("recovery.errors" in snapshot) == (retry is not None)
