"""Recovery policies in isolation: retry, breaker, failover payloads,
and the order the service executor applies them in."""

import pytest

from repro.faults.errors import CircuitOpenError, DmaDropError
from repro.faults.policy import (
    CircuitBreaker,
    FailoverBundle,
    RecoveryOutcome,
    RetryPolicy,
)
from repro.hardware.timing import SimClock
from repro.hypervisor.hypervisor import HypervisorCrashError
from repro.hypervisor.sync import SyncError
from repro.serving.gateway import (
    ExecutionFailure,
    Gateway,
    GatewayRequest,
    RequestStatus,
    ServiceExecutor,
)
from repro.serving.metrics import MetricsRegistry


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_us=-1.0)


def test_backoff_grows_exponentially():
    policy = RetryPolicy(max_attempts=4, backoff_us=100.0)
    assert [policy.backoff_for(n) for n in (1, 2, 3)] == [100.0, 200.0, 400.0]


def test_recoverable_classification():
    policy = RetryPolicy()
    assert policy.is_recoverable(DmaDropError("lost in transit"))
    # Deliberate-tamper signals and plain bugs are not retried.
    assert not policy.is_recoverable(SyncError("forged proof chain"))
    assert not policy.is_recoverable(RuntimeError("a bug, not a fault"))


def test_breaker_opens_after_threshold_then_half_opens():
    breaker = CircuitBreaker("device0", failure_threshold=3, reset_after_us=1_000.0)
    for _ in range(2):
        breaker.record_failure(0.0)
    assert not breaker.is_open
    breaker.allow(0.0)
    breaker.record_failure(0.0)
    assert breaker.is_open
    with pytest.raises(CircuitOpenError) as excinfo:
        breaker.allow(500.0)
    assert excinfo.value.target == "device0"
    # Cool-down elapsed: the trial call goes through (half-open)...
    breaker.allow(1_000.0)
    # ...failing the trial re-opens with a DOUBLED window (2 000 µs)...
    breaker.record_failure(1_000.0)
    assert breaker.current_reset_us == 2_000.0
    with pytest.raises(CircuitOpenError):
        breaker.allow(1_500.0)
    with pytest.raises(CircuitOpenError):
        breaker.allow(2_999.0)  # still inside the doubled window
    # ...the next trial at the doubled boundary goes through, and a
    # success closes it fully, resetting the window to its base.
    breaker.allow(3_000.0)
    breaker.record_success()
    assert not breaker.is_open
    assert breaker.current_reset_us == 1_000.0
    breaker.allow(0.0)


def test_breaker_trial_failures_double_until_capped():
    breaker = CircuitBreaker("device0", failure_threshold=1, reset_after_us=1_000.0)
    breaker.record_failure(0.0)  # opens with the base 1 000 µs window
    now = 1_000.0
    # Doubled on each failed trial, up to eight times the base.
    for expected in (2_000.0, 4_000.0, 8_000.0, 8_000.0, 8_000.0):
        breaker.allow(now)           # half-open trial at the boundary
        breaker.record_failure(now)  # trial fails → doubled, capped
        assert breaker.current_reset_us == expected
        with pytest.raises(CircuitOpenError):
            breaker.allow(now + expected - 1.0)
        now += expected
    # Recovery at last: base window restored for any future opens.
    breaker.allow(now)
    breaker.record_success()
    assert breaker.current_reset_us == 1_000.0


def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker("x", failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker("x", reset_after_us=-1.0)


def test_recovery_outcome_recovered_property():
    outcome = RecoveryOutcome()
    assert not outcome.recovered
    outcome.recovered_errors.append("DmaDropError")
    assert outcome.recovered


class _FakeSession:
    def __init__(self, session_id: bytes) -> None:
        self.session_id = session_id


def test_failover_bundle_validation_and_indexing():
    with pytest.raises(ValueError):
        FailoverBundle({}, b"bundle")
    bundle = FailoverBundle(
        {2: _FakeSession(b"b"), 0: _FakeSession(b"a")}, b"bundle"
    )
    assert bundle.device_indices == (0, 2)
    assert bundle.session_for(2) == b"b"
    assert bundle.session_for(0) == b"a"


# -- the executor's one attempt loop ---------------------------------------------


class _ScriptedDevice:
    idle_hevms = 1

    class config:
        hevm_count = 1


class _ScriptedService:
    """Three one-HEVM devices whose ``submit_bundle`` follows a script."""

    def __init__(self, script, log):
        self.clock = SimClock()
        self.devices = [_ScriptedDevice() for _ in range(3)]
        self._script = iter(script)
        self._log = log

    def try_pick_device(self):
        return None

    def submit_bundle(self, device, session_id, sealed):
        self._log.append(("attempt", self.devices.index(device)))
        self.clock.advance_us(10.0)
        step = next(self._script)
        if isinstance(step, Exception):
            raise step
        return step, 10.0, [], None


class _ScriptedSupervisor:
    def __init__(self, log, repairs=True):
        self._log = log
        self._repairs = repairs

    def intervene(self, error, device_index):
        self._log.append(("supervisor", type(error).__name__, device_index))
        return self._repairs


def test_executor_applies_its_policies_in_one_fixed_order():
    """One request through retry → open breaker → failover → supervisor
    intervention, in that order."""
    log = []
    service = _ScriptedService(
        [
            DmaDropError("lost in transit"),      # retryable in place
            HypervisorCrashError(b"dev2", "run"),  # needs the supervisor
            "sealed-report",
        ],
        log,
    )
    metrics = MetricsRegistry()
    executor = ServiceExecutor(
        service,
        RetryPolicy(max_attempts=6, backoff_us=100.0),
        metrics=metrics,
        supervisor=_ScriptedSupervisor(log),
    )
    for _ in range(4):  # device 0 is one failure short of tripping
        executor.breakers[0].record_failure(0.0)
    payload = FailoverBundle(
        {index: _FakeSession(b"s%d" % index) for index in range(3)}, b"bundle"
    )
    payload.seal_for = lambda device_index: b"sealed"
    request = GatewayRequest(
        request_id=1, session_id=b"s0", submitted_at_us=0.0,
        device_index=0, payload=payload,
    )

    service_us, result = executor.execute(request, 0.0)

    assert result == "sealed-report"
    assert log == [
        # 1: retryable, and the failure that opens device 0's breaker;
        #    failover moves the bundle to device 1.
        ("attempt", 0),
        # 2: not retryable — only now is the supervisor asked; it repairs,
        #    and the bundle fails over back to device 0...
        ("attempt", 1),
        ("supervisor", "HypervisorCrashError", 1),
        # 3: ...whose open breaker refuses without touching the device,
        # 4: so the retry lands on device 1 again, and succeeds.
        ("attempt", 1),
    ]
    outcome = request.recovery
    assert (outcome.attempts, outcome.retries) == (4, 3)
    assert outcome.recovered_errors == ["DmaDropError", "HypervisorCrashError"]
    assert outcome.backoff_us == 100.0 + 200.0 + 400.0
    assert (outcome.failover.from_device, outcome.failover.to_device) == (0, 1)
    assert isinstance(outcome.failover.cause, CircuitOpenError)
    assert service_us == 3 * 10.0 + outcome.backoff_us
    snapshot = metrics.snapshot()
    assert snapshot["recovery.errors"] == 2      # refusals are not failures
    assert snapshot["recovery.retries"] == 3
    assert snapshot["gateway.failover"] == 3
    assert snapshot["recovery.recovered"] == 1
    assert executor.breakers[0].is_open and not executor.breakers[1].is_open


def test_what_no_policy_claims_re_raises_as_is_and_the_front_door_keeps_serving():
    """The serving path's two broad catches, pinned to the reasons
    written beside them.  Executor: the retry policy and the supervisor
    classify by type, and what neither claims — a plain bug — re-raises
    as the very same object, now carrying the slot time its attempt
    consumed.  Gateway: the front door must keep serving, so whatever
    the executor raises becomes that request's FAILED record under the
    exception's own name; the slot frees and the next request runs."""
    boom = ZeroDivisionError("a bug, not a fault")
    log = []
    executor = ServiceExecutor(
        _ScriptedService([boom], log),
        RetryPolicy(),
        metrics=MetricsRegistry(),
        supervisor=_ScriptedSupervisor(log, repairs=False),
    )
    request = GatewayRequest(
        request_id=1, session_id=b"s0", submitted_at_us=0.0,
        device_index=0, payload=b"sealed",
    )
    with pytest.raises(ZeroDivisionError) as excinfo:
        executor.execute(request, 0.0)
    assert excinfo.value is boom and boom.service_us == 10.0
    assert log == [("attempt", 0), ("supervisor", "ZeroDivisionError", 0)]
    assert request.recovery.recovered_errors == []  # never counted as a fault
    assert not executor.breakers[0].is_open

    gateway = Gateway(
        ServiceExecutor(
            _ScriptedService([ZeroDivisionError("again"), "sealed-report"], [])
        )
    )
    failed = gateway.submit(b"s0", b"sealed", device_index=0)
    served = gateway.submit(b"s0", b"sealed", device_index=0)
    assert gateway.drain() == [failed, served]
    assert failed.status == RequestStatus.FAILED
    assert failed.failure == ExecutionFailure(
        error_type="ZeroDivisionError", cause_type="ZeroDivisionError",
        message="again", attempts=1,
    )
    assert failed.service_us == 10.0 and failed.result is None
    assert served.status == RequestStatus.COMPLETED
    assert served.result == "sealed-report"
    assert gateway.in_flight == 0 and gateway.queue_depth == 0
    snapshot = gateway.metrics.snapshot()
    assert snapshot["gateway.failed{cause=ZeroDivisionError}"] == 1
    assert snapshot["gateway.completed"] == 1
