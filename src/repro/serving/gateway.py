"""The multi-tenant request gateway — HarDTAPE's untrusted front door.

The paper's SP runs HarDTAPE as a shared service: bundles "queue until
an HEVM is idle" and throughput scales with HEVM count until the ORAM
server bottlenecks (§VI-D).  This module turns the one-shot
:class:`~repro.core.service.HarDTAPEService` into that shared service:
many sessions submit concurrently, one bounded FIFO queue absorbs
bursts, and admission control sheds overload with typed reasons.

Concurrency is modeled in *virtual time*: every in-flight completion is
an event on a :class:`~repro.serving.reactor.VirtualReactor`
(microseconds, same unit as :class:`~repro.hardware.timing.SimClock`),
and there is one capacity slot per HEVM.  A gateway built on its own
gets a private reactor, and ``submit(at_us=)`` / ``advance_until`` /
``drain`` run it — the synchronous mode; gateways handed a shared
reactor are driven by whoever runs that.  Execution itself is pluggable:

* :class:`ServiceExecutor` drives the real functional pipeline through
  ``HarDTAPEService.submit_bundle`` — results are bit-identical to the
  direct path, and the measured SimClock delta is the service time; its
  optional policies retry, circuit-break, fail over and escalate to the
  recovery plane in one fixed order;
* :class:`FleetModelExecutor` prices synthetic
  :class:`~repro.hardware.fleet.TxProfile` load against the shared
  :class:`~repro.hardware.fleet.OramServerLedger`, reproducing the
  §VI-D saturation knee at fleet scale without running bytecode
  (``loadgen.model_gateway`` builds that gateway).

Layering: serving sits *above* ``core`` and observes ``hardware`` /
``hypervisor`` statistics; nothing below ever imports it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from repro.faults.errors import (
    BundleFailedError,
    CircuitOpenError,
    FailedOverError,
)
from repro.faults.policy import CircuitBreaker, RecoveryOutcome, RetryPolicy
from repro.hardware.fleet import OramServerLedger, profile_finish_us
from repro.hardware.timing import CostModel
from repro.serving.metrics import MetricsRegistry
from repro.serving.reactor import COMPLETION, VirtualReactor
from repro.telemetry.tracer import NULL_TRACER, TraceContext, Tracer, tracer_for


class RejectReason:
    """Typed reasons a submission bounces at the front door.

    Every submission is either admitted into the bounded queue or
    rejected with one of these, which the client can act on: retry
    elsewhere (queue full, shed) or reduce concurrency (in-flight cap).
    ``Gateway._admission_reason`` is the one place that picks one.
    """

    QUEUE_FULL = "queue-full"                   # the gateway's bounded queue
    SESSION_LIMIT = "session-in-flight-limit"   # per-session outstanding cap
    SHED_QUEUE_DEPTH = "shed-queue-depth"       # load shedding threshold

    ALL = (QUEUE_FULL, SESSION_LIMIT, SHED_QUEUE_DEPTH)


class RequestStatus:
    """Lifecycle states of a gateway request."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"
    FAILED = "failed"      # dispatched, but execution (incl. recovery) failed


@dataclass(frozen=True)
class ExecutionFailure:
    """Typed record of why a dispatched request failed.

    ``error_type`` is the exception the executor surfaced (usually
    :class:`~repro.faults.errors.BundleFailedError` after recovery ran
    dry); ``cause_type`` is the innermost typed fault, which is what the
    per-reason failure metrics key on — every failed request is
    accounted under the fault that actually sank it, never silently.
    """

    error_type: str
    cause_type: str
    message: str
    # How many device attempts the executor burned before giving up
    # (1 for plain executors that never retry).
    attempts: int = 1


@dataclass
class GatewayRequest:
    """One submission's full lifecycle record.

    ``payload`` is executor-specific: a sealed bundle (or a zero-arg
    callable producing one, invoked at dispatch so secure-channel nonces
    stay ordered) for :class:`ServiceExecutor`, a
    :class:`~repro.hardware.fleet.TxProfile` for
    :class:`FleetModelExecutor`.
    """

    request_id: int
    session_id: bytes
    submitted_at_us: float
    device_index: int | None = None
    payload: Any = None
    status: str = RequestStatus.QUEUED
    reject_reason: str | None = None
    started_at_us: float | None = None
    finished_at_us: float | None = None
    service_us: float | None = None
    result: Any = None
    failure: ExecutionFailure | None = None
    # The :class:`~repro.faults.policy.RecoveryOutcome` of the service
    # path: what retry/failover did for this request.
    recovery: Any = None
    # Per-request span handles; ``None`` when tracing is off or the
    # request was not sampled.
    trace: TraceContext | None = None
    # Called once with this record when it completes, fails or is shed
    # at the door.  Without one, the next ``advance_until`` / ``drain``
    # hands the record back.
    on_done: Callable[["GatewayRequest"], None] | None = None

    @property
    def queue_wait_us(self) -> float | None:
        if self.started_at_us is None:
            return None
        return self.started_at_us - self.submitted_at_us

    @property
    def latency_us(self) -> float | None:
        if self.finished_at_us is None or self.status != RequestStatus.COMPLETED:
            return None
        return self.finished_at_us - self.submitted_at_us


class BundleExecutor(Protocol):
    """Where dispatched requests actually run.

    ``slots`` lists one entry per capacity slot (HEVM); each entry is the
    device index the slot belongs to, or ``None`` for device-agnostic
    model slots.  ``execute`` runs a request starting at ``start_us`` of
    virtual time and returns ``(service_us, result)``.
    """

    slots: list[int | None]

    def execute(
        self, request: GatewayRequest, start_us: float
    ) -> tuple[float, Any]:
        ...  # pragma: no cover - protocol


# Consecutive failures that trip a device's breaker.
BREAKER_FAILURE_THRESHOLD = 5


class ServiceExecutor:
    """Run bundles through the real functional pipeline.

    Service time is the SimClock delta across the attempts, so the
    gateway's virtual timeline stays calibrated to the same cost model
    as every other experiment.  Note the channel-ordering contract:
    trace reports are sealed at dispatch, so a session opening its
    reports must do so in completion order — sessions wanting strict
    ordering should keep one request in flight
    (``GatewayConfig.max_in_flight_per_session = 1``).

    With no policies this is one ``submit_bundle`` call: no metric is
    touched and a failure propagates as the raw typed error.  Policies
    join one attempt loop in one fixed order:

    1. the device's circuit breaker — an open one is refused outright;
    2. the attempt;
    3. on error: retryable under ``retry``?  If not, ``supervisor`` may
       repair the world (cold-restart the Hypervisor, re-sync the ORAM)
       and declare it retryable; otherwise the error propagates;
    4. backoff in virtual time;
    5. failover to another device the payload holds a session on, with
       an idle HEVM.

    Failures consume virtual time (the failed attempts plus backoff), so
    a recovered bundle's service time honestly includes its recovery
    cost, and every propagated error carries the elapsed ``service_us``
    for the gateway's slot accounting.  Exhausted recovery surfaces as
    :class:`~repro.faults.errors.BundleFailedError`; a rescue by
    failover is recorded as a typed
    :class:`~repro.faults.errors.FailedOverError` outcome.
    """

    def __init__(
        self,
        service,
        retry: RetryPolicy | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        breaker_reset_us: float = 1_000_000.0,
        supervisor=None,
    ) -> None:
        self.service = service
        self.retry = retry
        self._metrics = metrics
        # ``repro.recovery.supervisor.HypervisorSupervisor`` or None.
        self._supervisor = supervisor
        self.breakers = {
            index: CircuitBreaker(
                f"device{index}", BREAKER_FAILURE_THRESHOLD, breaker_reset_us
            )
            for index in range(len(service.devices))
        }
        self.slots: list[int | None] = []
        for index, device in enumerate(service.devices):
            self.slots.extend([index] * device.config.hevm_count)

    def _run_once(self, request: GatewayRequest, device_index: int):
        payload = request.payload
        # Re-sealable payloads (FailoverBundle) seal late for whichever
        # device the attempt lands on — failover relies on this.
        if hasattr(payload, "seal_for"):
            session_id = payload.session_for(device_index)
            sealed = payload.seal_for(device_index)
        else:
            session_id = request.session_id
            sealed = payload() if callable(payload) else payload
        sealed_out, _, _, _ = self.service.submit_bundle(
            self.service.devices[device_index], session_id, sealed
        )
        return sealed_out

    def _failover_target(self, from_index: int, payload) -> int | None:
        """Another device with an idle HEVM the payload can run on."""
        if not hasattr(payload, "seal_for"):
            return None  # single-session payload: nowhere else to go
        allowed = payload.device_indices
        picked = self.service.try_pick_device()
        if picked is not None:
            index = self.service.devices.index(picked)
            if index != from_index and index in allowed:
                return index
        for index, device in enumerate(self.service.devices):
            if index != from_index and index in allowed and device.idle_hevms > 0:
                return index
        return None

    def execute(
        self, request: GatewayRequest, start_us: float
    ) -> tuple[float, Any]:
        if request.device_index is None:
            raise ValueError("service-path requests are session/device bound")
        clock = self.service.clock
        tracer = tracer_for(clock)
        # Bridge clock domains: spans recorded on the device SimClock
        # (attempts and backoffs alike) are shifted so they render inside
        # this request's gateway interval.
        with tracer.shifted(start_us - clock.now_us):
            return self._attempt_loop(request, tracer)

    def _attempt_loop(self, request: GatewayRequest, tracer) -> tuple[float, Any]:
        clock = self.service.clock
        started_us = clock.now_us
        max_attempts = 1 if self.retry is None else self.retry.max_attempts
        outcome = request.recovery = RecoveryOutcome()
        current = request.device_index
        last_error: Exception | None = None

        while True:
            outcome.attempts += 1
            breaker = self.breakers[current]
            try:
                breaker.allow(clock.now_us)
                result = self._run_once(request, current)
            except CircuitOpenError as error:
                last_error = error  # refused, not a new device failure
            except Exception as error:
                # Broad on purpose: the retry policy and the supervisor
                # classify by type; what neither claims re-raises below.
                recoverable = (
                    self.retry is not None and self.retry.is_recoverable(error)
                )
                if not recoverable and self._supervisor is not None:
                    recoverable = self._supervisor.intervene(error, current)
                if not recoverable:
                    # Untyped/unrepairable: a bug, not a fault — but the
                    # attempts still consumed virtual slot time, so hand
                    # the accounting to the gateway before propagating.
                    error.service_us = clock.now_us - started_us
                    raise
                last_error = error
                breaker.record_failure(clock.now_us)
                name = type(error).__name__
                outcome.recovered_errors.append(name)
                if self._metrics is not None:
                    self._metrics.counter("recovery.errors").inc()
                    self._metrics.counter("recovery.errors", error=name).inc()
                active = tracer.active
                if active is not None:
                    # The active span is gateway-domain (shift 0); the
                    # event is timed on the device clock, so pre-shift.
                    active.event(
                        "fault",
                        clock.now_us + tracer.shift_us,
                        error=name,
                        attempt=outcome.attempts,
                        device=current,
                    )
            else:
                breaker.record_success()
                if outcome.recovered and self._metrics is not None:
                    self._metrics.counter("recovery.recovered").inc()
                return clock.now_us - started_us, result

            if outcome.attempts >= max_attempts:
                raise BundleFailedError(
                    outcome.attempts, last_error, clock.now_us - started_us
                )
            backoff = self.retry.backoff_for(outcome.attempts)
            tracer.record(
                "recovery.backoff", "recovery", backoff, attempt=outcome.attempts
            )
            clock.advance_us(backoff)
            outcome.backoff_us += backoff
            outcome.retries += 1
            if self._metrics is not None:
                self._metrics.counter("recovery.retries").inc()
            target = self._failover_target(current, request.payload)
            if target is not None:
                outcome.failover = FailedOverError(current, target, last_error)
                if self._metrics is not None:
                    self._metrics.counter("gateway.failover").inc()
                    self._metrics.counter(
                        "faults.outcome", outcome="FailedOverError"
                    ).inc()
                active = tracer.active
                if active is not None:
                    active.event(
                        "failover",
                        clock.now_us + tracer.shift_us,
                        from_device=current,
                        to_device=target,
                    )
                current = target


class FleetModelExecutor:
    """Price synthetic ``TxProfile`` load against the shared ORAM server.

    Every request's queries are reserved on one
    :class:`~repro.hardware.fleet.OramServerLedger` at dispatch, so as
    concurrency grows past the server's capacity, service times inflate
    and gateway throughput knees — the §VI-D bottleneck, now visible
    through the front door.
    """

    def __init__(
        self,
        core_count: int,
        cost: CostModel | None = None,
        server: OramServerLedger | None = None,
    ) -> None:
        if core_count < 1:
            raise ValueError("need at least one core")
        self.cost = cost or CostModel()
        self.server = server or OramServerLedger(self.cost.oram_server_cpu_us)
        self.slots: list[int | None] = [None] * core_count

    def execute(
        self, request: GatewayRequest, start_us: float
    ) -> tuple[float, Any]:
        # A gateway dispatches at its reactor's now, which never goes
        # back, and every query of a request arrives after its start: no
        # later query can land in a bucket behind this ``start_us``.
        self.server.forget_before(start_us)
        finish = profile_finish_us(request.payload, start_us, self.server, self.cost)
        return finish - start_us, None


@dataclass
class GatewayConfig:
    """Front-door knobs."""

    max_queue_depth: int = 64
    max_in_flight_per_session: int = 4   # queued + running, per session
    # Shed at this queue depth, before the hard bound: a queue that only
    # rejects when *full* serves every admitted request with the worst
    # wait, so shedding earlier trades rejects for bounded queueing delay.
    shed_depth: int | None = None

    def __post_init__(self) -> None:
        if self.shed_depth is not None and self.shed_depth < 1:
            raise ValueError("need shed_depth >= 1")


class Gateway:
    """Bounded queue + admission control + per-device slot dispatch."""

    def __init__(
        self,
        executor: BundleExecutor,
        config: GatewayConfig | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        flight: Any = None,
        reactor: VirtualReactor | None = None,
    ) -> None:
        self.executor = executor
        self.config = config or GatewayConfig()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Optional repro.telemetry.flight.FlightRecorder: typed failures
        # seal the failing session's ring into a deterministic dump.
        # Pure bookkeeping — no clock or metric effects when armed.
        self.flight = flight
        # Where completions are scheduled.  A private reactor is the
        # synchronous mode; gateways behind one router share theirs.
        self.reactor = VirtualReactor() if reactor is None else reactor
        self._sequence = 0
        # Oldest first: a request leaves it only for a slot that can
        # take it, so one bound to a busy device lets later ones pass.
        self._queue: deque[GatewayRequest] = deque()
        self._free_slots: list[int] = list(range(len(executor.slots)))
        self._in_flight = 0
        self._session_outstanding: dict[bytes, int] = {}
        self._terminal: list[GatewayRequest] = []

    # ------------------------------------------------------------------
    # Load view (the loadgen and the router read these)
    # ------------------------------------------------------------------

    @property
    def now_us(self) -> float:
        return self.reactor.now_us

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def session_load(self, session_id: bytes) -> int:
        return self._session_outstanding.get(session_id, 0)

    def load_metrics(self) -> dict[str, float]:
        """The metrics snapshot a load report over this frontend carries."""
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------

    def submit(
        self,
        session_id: bytes,
        payload: Any,
        *,
        at_us: float | None = None,
        device_index: int | None = None,
        on_done: Callable[[GatewayRequest], None] | None = None,
    ) -> GatewayRequest:
        """Submit one bundle; returns its (live) lifecycle record.

        ``at_us`` is the synchronous mode: the reactor first runs every
        event due by then (so never pass it from inside a reactor
        event); ``None`` means now.  A rejected request comes back with
        ``status == "rejected"`` and a typed ``reject_reason``; an
        admitted one completes as the reactor runs.  Either way
        ``on_done``, when given, is called with the record once.
        """
        if at_us is not None:
            if at_us < self.now_us:
                raise ValueError("submissions must move forward in virtual time")
            self.reactor.run_until(at_us)
        now = self.now_us

        self._sequence += 1
        request = GatewayRequest(
            request_id=self._sequence,
            session_id=session_id,
            submitted_at_us=now,
            device_index=device_index,
            payload=payload,
            on_done=on_done,
        )
        self.metrics.counter("gateway.submitted").inc()
        # One sampling draw per submission, in submission order, so the
        # sampled set depends only on (seed, rate) — never on outcomes.
        if self.tracer.enabled and self.tracer.sample():
            root = self.tracer.start_span(
                "gateway.request",
                "request",
                start_us=now,
                attributes={
                    "request_id": request.request_id,
                    "session": session_id.hex(),
                    # There are no priority lanes; the constant stays
                    # because the committed trace exports and
                    # BENCH_recovery.json's trace_hash carry it, and
                    # dropping it is a re-record of its own.
                    "priority": 0,
                },
            )
            request.trace = TraceContext(root=root)

        reason = self._admission_reason(request)
        if reason is not None:
            request.status = RequestStatus.REJECTED
            request.reject_reason = reason
            request.finished_at_us = now
            self.metrics.counter("gateway.rejected").inc()
            self.metrics.counter("gateway.rejected", reason=reason).inc()
            if request.trace is not None:
                request.trace.root.set(status=request.status, reject_reason=reason)
                self.tracer.end_span(request.trace.root, now)
            if on_done is not None:
                on_done(request)
            return request

        self.metrics.counter("gateway.admitted").inc()
        if request.trace is not None:
            request.trace.queue = self.tracer.start_span(
                "gateway.queue",
                "queueing",
                start_us=now,
                parent=request.trace.root,
            )
        self._queue.append(request)
        self._session_outstanding[session_id] = self.session_load(session_id) + 1
        self.metrics.gauge("gateway.queue_depth").set(len(self._queue))
        self._dispatch()
        return request

    def _admission_reason(self, request: GatewayRequest) -> str | None:
        if len(self._queue) >= self.config.max_queue_depth:
            return RejectReason.QUEUE_FULL
        cap = self.config.max_in_flight_per_session
        if cap is not None and self.session_load(request.session_id) >= cap:
            return RejectReason.SESSION_LIMIT
        shed = self.config.shed_depth
        if shed is not None and self.queue_depth >= shed:
            return RejectReason.SHED_QUEUE_DEPTH
        return None

    # ------------------------------------------------------------------
    # Virtual-time engine
    # ------------------------------------------------------------------

    def advance_until(self, until_us: float) -> list[GatewayRequest]:
        """Process completions up to ``until_us`` of virtual time.

        Returns every request without an ``on_done`` that reached a
        terminal state since the last call, in the order it got there.
        """
        self.reactor.run_until(until_us)
        return self._take_terminal()

    def drain(self) -> list[GatewayRequest]:
        """Run until nothing is queued or in flight."""
        self.reactor.run_until_idle()
        return self._take_terminal()

    def _take_terminal(self) -> list[GatewayRequest]:
        terminal, self._terminal = self._terminal, []
        return terminal

    def _leave(self, request: GatewayRequest) -> None:
        if request.on_done is not None:
            request.on_done(request)
        else:
            self._terminal.append(request)

    def _complete(self, slot: int, request: GatewayRequest) -> None:
        """The reactor event at a dispatched request's finish time."""
        finish_us = self.now_us
        request.finished_at_us = finish_us
        self._free_slots.append(slot)
        self._in_flight -= 1
        self._release_session(request.session_id)
        if request.failure is not None:
            request.status = RequestStatus.FAILED
            self.metrics.counter("gateway.failed").inc()
            self.metrics.counter(
                "gateway.failed", cause=request.failure.cause_type
            ).inc()
            if self.flight is not None:
                self.flight.note(
                    request.session_id, "event", "gateway.failed",
                    finish_us,
                    request_id=request.request_id,
                    cause=request.failure.cause_type,
                    attempts=request.failure.attempts,
                )
                self.flight.seal_if_triggered(
                    request.session_id,
                    request.failure.cause_type,
                    request.failure.message,
                    finish_us,
                )
        else:
            request.status = RequestStatus.COMPLETED
            self.metrics.counter("gateway.completed").inc()
            self.metrics.histogram("gateway.service_us").observe(
                request.service_us
            )
            self.metrics.histogram("gateway.latency_us").observe(
                request.latency_us
            )
        self._close_trace(request)
        self._leave(request)
        self._dispatch()

    def _dispatch(self) -> None:
        """Move queued requests onto free slots, oldest eligible first."""
        now = self.now_us
        deferred: list[GatewayRequest] = []
        while self._queue and self._free_slots:
            request = self._queue.popleft()
            slot = self._take_slot(request.device_index)
            if slot is None:
                deferred.append(request)
                continue
            request.status = RequestStatus.RUNNING
            request.started_at_us = now
            trace = request.trace
            if trace is not None:
                self.tracer.end_span(trace.queue, now)
                trace.queue.set(wait_us=request.queue_wait_us)
                trace.execute = self.tracer.start_span(
                    "gateway.execute",
                    "service",
                    start_us=now,
                    parent=trace.root,
                    attributes={"slot": slot},
                )
                context = self.tracer.attach(trace.execute)
            else:
                # Unsampled: swallow device-side spans so they never
                # become orphan roots in the export.
                context = self.tracer.suppressed()
            try:
                with context:
                    service_us, result = self.executor.execute(request, now)
            except Exception as exc:
                # Broad on purpose: the front door must keep serving, so
                # any executor error becomes this request's FAILED record.
                # The slot was genuinely occupied for as long as the
                # attempts took (the service executor carries that on the
                # error), and the request terminates FAILED at its event
                # time — accounted, never silently dropped.
                service_us = float(getattr(exc, "service_us", 0.0))
                cause = getattr(exc, "last_error", exc)
                request.failure = ExecutionFailure(
                    error_type=type(exc).__name__,
                    cause_type=type(cause).__name__,
                    message=str(exc),
                    attempts=int(getattr(exc, "attempts", 1)),
                )
                result = None
            request.service_us = service_us
            request.result = result
            if trace is not None:
                self.tracer.end_span(trace.execute, now + service_us)
                if request.failure is not None:
                    trace.execute.set(
                        error=request.failure.error_type,
                        cause=request.failure.cause_type,
                    )
            self._in_flight += 1
            self.metrics.histogram("gateway.queue_wait_us").observe(
                request.queue_wait_us
            )
            self.reactor.call_at(
                now + service_us, self._complete, slot, request, rank=COMPLETION
            )
        self._queue.extendleft(reversed(deferred))
        self.metrics.gauge("gateway.queue_depth").set(len(self._queue))

    def _take_slot(self, device_index: int | None) -> int | None:
        for position, slot in enumerate(self._free_slots):
            slot_device = self.executor.slots[slot]
            if (
                device_index is None
                or slot_device is None
                or slot_device == device_index
            ):
                return self._free_slots.pop(position)
        return None

    def _close_trace(self, request: GatewayRequest) -> None:
        """End a sampled request's root span at its finish time (it was
        dispatched, so its queue span ended then)."""
        trace = request.trace
        if trace is None:
            return
        trace.root.set(status=request.status)
        if request.failure is not None:
            trace.root.set(
                error=request.failure.error_type,
                cause=request.failure.cause_type,
            )
        self.tracer.end_span(trace.root, request.finished_at_us)

    def _release_session(self, session_id: bytes) -> None:
        remaining = self._session_outstanding.get(session_id, 0) - 1
        if remaining <= 0:
            self._session_outstanding.pop(session_id, None)
        else:
            self._session_outstanding[session_id] = remaining
