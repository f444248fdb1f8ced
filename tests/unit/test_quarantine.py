"""Quarantine-driven degraded serving: policy, executor refusal, gateway shed."""

import pytest

from repro.core.device import DeviceConfig
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.faults.errors import BundleFailedError, QuarantinedDeviceError
from repro.faults.policy import FailoverBundle, QuarantinePolicy
from repro.hypervisor.bundle_codec import (
    TransactionBundle,
    decode_trace_report,
    encode_bundle,
)
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.hypervisor.receipts import ReceiptMismatchError
from repro.serving.admission import RejectReason
from repro.serving.gateway import (
    Gateway,
    GatewayConfig,
    GatewayRequest,
    ServiceExecutor,
)
from repro.serving.metrics import MetricsRegistry
from repro.telemetry.flight import FlightRecorder
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

pytestmark = pytest.mark.byzantine


@pytest.fixture(scope="module")
def evalset():
    return build_evaluation_set(
        EvaluationSetConfig(blocks=1, txs_per_block=4)
    )


@pytest.fixture
def fleet(evalset):
    service = HarDTAPEService(
        evalset.node,
        SecurityFeatures.from_level("full"),
        device_count=2,
        device_config=DeviceConfig(hevm_count=2),
        charge_fees=False,
    )
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x07" * 32
    )
    sessions = {
        index: client.connect(service, device)
        for index, device in enumerate(service.devices)
    }
    return service, sessions


def _failover_bundle(service, sessions, evalset):
    bundle = TransactionBundle(
        transactions=(evalset.transactions[0],),
        block_number=service.synced_height,
    )
    return FailoverBundle(sessions, encode_bundle(bundle))


def _cause():
    return ReceiptMismatchError(b"\x00" * 16, "commitment", "test verdict")


class TestPolicyState:
    def test_quarantine_is_idempotent_and_released(self, fleet):
        service, _ = fleet
        metrics = MetricsRegistry()
        policy = QuarantinePolicy(service, metrics=metrics)
        assert not policy.any_quarantined
        assert policy.healthy_indices() == [0, 1]

        assert policy.quarantine(0, _cause())
        assert not policy.quarantine(0, _cause())  # already isolated
        assert policy.is_quarantined(0)
        assert policy.healthy_indices() == [1]
        snapshot = metrics.snapshot()
        assert snapshot["quarantine.quarantined"] == 1.0
        assert snapshot["quarantine.devices"] == 1.0

        assert policy.release(0)
        assert not policy.release(0)
        assert not policy.any_quarantined
        assert metrics.snapshot()["quarantine.devices"] == 0.0

    def test_executor_refuses_quarantined_device_until_release(self, fleet, evalset):
        """An executor given the policy refuses attempts on a quarantined
        device — indefinitely, whatever its breaker thinks — and resumes
        after ``release``."""
        service, sessions = fleet
        policy = QuarantinePolicy(service)
        executor = ServiceExecutor(service, quarantine=policy)
        bundle = TransactionBundle(
            transactions=(evalset.transactions[0],),
            block_number=service.synced_height,
        )

        def attempt():
            request = GatewayRequest(
                request_id=1,
                session_id=sessions[1].session_id,
                submitted_at_us=0.0,
                device_index=1,
                payload=lambda: sessions[1].channel.seal(encode_bundle(bundle)),
            )
            return executor.execute(request, service.clock.now_us)

        policy.quarantine(1, _cause())
        served = service.stats.bundles_served
        # Time passing does not heal a quarantine.
        service.clock.advance_us(10**9)
        with pytest.raises(BundleFailedError) as excinfo:
            attempt()
        assert isinstance(excinfo.value.last_error, QuarantinedDeviceError)
        assert excinfo.value.service_us == 0.0
        assert service.stats.bundles_served == served  # never reached it
        assert not executor.breakers[1].is_open  # a refusal is no failure
        policy.release(1)
        service_us, sealed_out = attempt()
        assert service_us > 0 and sessions[1].channel.open(sealed_out)

    def test_failover_target_skips_quarantined_devices(
        self, fleet, evalset
    ):
        service, sessions = fleet
        policy = QuarantinePolicy(service)
        executor = ServiceExecutor(service, quarantine=policy)
        payload = _failover_bundle(service, sessions, evalset)
        assert executor._failover_target(0, payload) == 1
        policy.quarantine(1, _cause())
        assert executor._failover_target(0, payload) is None

    def test_quarantine_seals_a_flight_dump(self, fleet):
        service, sessions = fleet
        flight = FlightRecorder(16)
        policy = QuarantinePolicy(service, flight=flight)
        policy.quarantine(
            0, _cause(), session_id=sessions[0].session_id
        )
        assert len(flight.dumps) == 1
        assert flight.dumps[0].cause_type == "ReceiptMismatchError"


class TestHealing:
    def test_heal_reexecutes_on_a_healthy_device(self, fleet, evalset):
        service, sessions = fleet
        metrics = MetricsRegistry()
        policy = QuarantinePolicy(service, metrics=metrics)
        policy.quarantine(0, _cause())
        payload = _failover_bundle(service, sessions, evalset)

        target, sealed_out = policy.heal(payload, 0)
        assert target == 1
        report = decode_trace_report(payload.open_with(target, sealed_out))
        assert len(report.traces) == 1 and not report.aborted
        assert policy.heals == 1
        assert metrics.snapshot()["quarantine.healed"] == 1.0

    def test_heal_with_no_healthy_device_raises_typed(
        self, fleet, evalset
    ):
        service, sessions = fleet
        flight = FlightRecorder(16)
        policy = QuarantinePolicy(service, flight=flight)
        policy.quarantine(0, _cause())
        policy.quarantine(1, _cause())
        payload = _failover_bundle(service, sessions, evalset)
        with pytest.raises(QuarantinedDeviceError) as excinfo:
            policy.heal(payload, 0, session_id=sessions[0].session_id)
        assert excinfo.value.from_device == 0
        assert set(excinfo.value.quarantined) == {0, 1}
        assert any(
            dump.cause_type == "QuarantinedDeviceError"
            for dump in flight.dumps
        )

    def test_heal_skips_repair_when_sync_is_current(self, fleet, evalset):
        service, sessions = fleet
        # Sync one real block so blocks_synced > 0 and the root is fresh.
        evalset.node.add_block([])
        service.sync_new_blocks()
        policy = QuarantinePolicy(service)
        policy.quarantine(0, _cause())
        policy.heal(_failover_bundle(service, sessions, evalset), 0)
        assert policy.resyncs == 0


class TestDegradedGateway:
    def _gateway(self, service, policy, **config):
        return Gateway(
            ServiceExecutor(service),
            GatewayConfig(**config),
            metrics=MetricsRegistry(),
            quarantine=policy,
        )

    def test_bound_request_reroutes_off_a_quarantined_device(
        self, fleet, evalset
    ):
        service, sessions = fleet
        policy = QuarantinePolicy(service)
        policy.quarantine(0, _cause())
        gateway = self._gateway(service, policy)
        payload = _failover_bundle(service, sessions, evalset)
        request = gateway.submit(
            sessions[0].session_id, payload, device_index=0
        )
        gateway.drain()
        assert request.status == "completed"
        assert request.device_index == 1  # re-routed, not shed

    def test_single_session_payload_sheds_typed(self, fleet, evalset):
        service, sessions = fleet
        policy = QuarantinePolicy(service)
        policy.quarantine(0, _cause())
        gateway = self._gateway(service, policy)
        bundle = TransactionBundle(
            transactions=(evalset.transactions[0],),
            block_number=service.synced_height,
        )
        sealed = sessions[0].channel.seal(encode_bundle(bundle))
        request = gateway.submit(
            sessions[0].session_id, sealed, device_index=0
        )
        assert request.status == "rejected"
        assert request.reject_reason == RejectReason.QUARANTINED_CAPACITY

    def test_full_queue_under_quarantine_names_degraded_capacity(
        self, fleet, evalset
    ):
        service, sessions = fleet
        policy = QuarantinePolicy(service)
        policy.quarantine(0, _cause())
        gateway = self._gateway(
            service, policy,
            max_queue_depth=1, max_in_flight_per_session=16,
        )
        payload = _failover_bundle(service, sessions, evalset)
        # Device 1 has two HEVM slots: fill both, then the one queue
        # slot; the next submission sheds with the degraded reason.
        admitted = [
            gateway.submit(sessions[1].session_id, payload, device_index=1)
            for _ in range(3)
        ]
        shed = gateway.submit(
            sessions[1].session_id, payload, device_index=1
        )
        assert all(r.status != "rejected" for r in admitted)
        assert shed.reject_reason == RejectReason.QUARANTINED_CAPACITY
        assert RejectReason.QUARANTINED_CAPACITY in RejectReason.ALL

    def test_unquarantined_gateway_is_unchanged(self, fleet, evalset):
        service, sessions = fleet
        gateway = self._gateway(service, QuarantinePolicy(service))
        payload = _failover_bundle(service, sessions, evalset)
        request = gateway.submit(
            sessions[0].session_id, payload, device_index=0
        )
        gateway.drain()
        assert request.status == "completed"
        assert request.device_index == 0
