"""The quarantine policy: its state, its flight-recorder seal and healing."""

import pytest

from repro.core.device import DeviceConfig
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.faults.errors import QuarantinedDeviceError
from repro.faults.policy import FailoverBundle, QuarantinePolicy
from repro.hypervisor.bundle_codec import (
    TransactionBundle,
    decode_trace_report,
    encode_bundle,
)
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.hypervisor.receipts import ReceiptMismatchError
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
        assert policy.quarantined == set()

        assert policy.quarantine(0, _cause())
        assert not policy.quarantine(0, _cause())  # already isolated
        assert policy.quarantined == {0}
        snapshot = metrics.snapshot()
        assert snapshot["quarantine.quarantined"] == 1.0
        assert snapshot["quarantine.devices"] == 1.0

        assert policy.release(0)
        assert not policy.release(0)
        assert policy.quarantined == set()
        assert metrics.snapshot()["quarantine.devices"] == 0.0

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

