"""The async serving tier: C10K multiplexing over the gateway fleet.

One :class:`AsyncServingTier` sits on a frontend (a single
:class:`~repro.serving.gateway.Gateway` or a shard-aware
:class:`~repro.serving.router.ShardSessionRouter`), schedules on the
frontend's reactor, and drives a *handshake engine* that knows how
sessions are established, suspended into resumption tickets, and
resumed:

* :class:`ModelHandshakeEngine` — virtual-cost handshakes with *real*
  sealed tickets (mint/redeem through the same
  :class:`~repro.hypervisor.resumption.TicketSealer` codepath the
  hypervisor uses, including epoch binding and single-use), no ECC.
  This is what lets ``bench_c10k`` hold 10,000 concurrent sessions in
  one process in CI time.
* :class:`ServiceHandshakeEngine` — the full pipeline: per-tenant
  :class:`~repro.core.user.PreExecutionClient` attestation+DHKE,
  hypervisor-minted tickets, and in-place updates of the tenant's
  session mapping so :class:`~repro.faults.policy.FailoverBundle`
  payloads re-resolve to the resumed session.

Dispatch is cooperative and non-blocking: ``submit`` never waits.  An
ACTIVE session dispatches straight onto the frontend; a HANDSHAKING or
RESUMED session queues the payload on its backlog; a SUSPENDED session
starts a one-round-trip ticket redemption.  A ticket the hypervisor
refuses as :class:`~repro.hypervisor.resumption.StaleTicketError`
(restart since mint) falls back to a full handshake — typed, counted,
never retried as a transient fault.

A session's shard is the router's to decide, every time: the tier
keeps no copy of it (nor does the ticket), so a ring change reroutes a
woken session's next request with nothing to re-derive.  The shard the
tier's spans and flight notes carry is asked of the router when they
are written.

Tier events (arrivals, handshake completions, idle timers) and the
frontend's completions are events on one reactor, ordered by its rank
rule (completions due at T run before an arrival at T), and every
dispatched request reports back through its ``on_done`` — the tier
keeps no record of it; ``run()`` is just "run the reactor to idle".
With idle eviction off and pure payload factories, a seeded open-loop
run *through* the tier is byte-identical to the same
:func:`repro.serving.loadgen.run_open_loop` straight at the gateway —
the tier keeps its own metrics registry and adds no spans to the
frontend's tracer, so the gateway's trace, metrics, wire bytes, and the
world digest all hash equal (the ``c10k-bench`` identity gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.crypto.kdf import Drbg, hkdf_sha256
from repro.hardware.timing import CostModel
from repro.hypervisor.resumption import StaleTicketError, TicketSealer, TicketState
from repro.serving.gateway import Gateway, GatewayRequest, RequestStatus
from repro.serving.metrics import MetricsRegistry
from repro.serving.router import ShardSessionRouter
from repro.telemetry.tracer import tracer_for
from repro.hypervisor.lifecycle import (
    EDGES,
    InvalidSessionTransition,
    SessionState,
    device_holds,
)


@dataclass
class AsyncSession:
    """One multiplexed session's bookkeeping: a record of a few hundred
    bytes — never a thread, nor a channel object while suspended —
    walking the lifecycle :mod:`repro.hypervisor.lifecycle` declares."""

    routing_id: bytes               # stable id: shard routing + gateway accounting
    state: str = SessionState.HANDSHAKING
    last_activity_us: float = 0.0
    device_index: int | None = None
    # Engine-specific handles: the live client session while the device
    # holds one, the suspended (ticket) state while SUSPENDED.
    live: Any = None
    parked: Any = None
    # Payloads that arrived mid-handshake/mid-resume, flushed on ACTIVE.
    backlog: list[Any] = field(default_factory=list)
    in_flight: int = 0
    suspend_timer: Any = None
    # The open ``tier.handshake`` span while a handshake is in flight.
    handshake_span: Any = None
    suspends: int = 0

    def transition(self, dst: str, at_us: float) -> None:
        if dst not in EDGES[self.state]:
            raise InvalidSessionTransition(self.routing_id, self.state, dst)
        self.state = dst
        self.last_activity_us = at_us


class SessionCapacityError(Exception):
    """Non-blocking admission refusal: the tier is at its session cap."""

    def __init__(self, limit: int) -> None:
        super().__init__(f"serving tier at capacity ({limit} live sessions)")
        self.limit = limit


class SessionClosedError(Exception):
    """A payload arrived for a session that already closed."""


# ----------------------------------------------------------------------
# Handshake engines
# ----------------------------------------------------------------------

class ModelHandshakeEngine:
    """Virtual-time handshakes, real sealed tickets.

    Establishment and resumption charge the paper's costs (attestation
    45 ms + DHKE 55 ms full; ``ticket_resume_us`` resumed) as reactor
    delays; the tickets themselves go through the real
    :class:`TicketSealer` — epoch-bound AAD, single-use, typed stale
    refusal — so the C10K run exercises the actual refusal paths.
    ``advance_epoch()`` models a hypervisor restart: every outstanding
    ticket goes stale at once.
    """

    def __init__(self, cost: CostModel | None = None, seed: int = 1) -> None:
        self.cost = cost or CostModel()
        self.full_handshake_us = self.cost.attestation_us + self.cost.dhke_us
        self.resume_us = self.cost.ticket_resume_us
        self.epoch = 0
        self._sealer = TicketSealer(
            hkdf_sha256(seed.to_bytes(8, "big"), info=b"c10k-model-ticket")
        )
        self._rng = Drbg(seed.to_bytes(8, "big"),
                         personalization=b"c10k-handshake")

    def open(self, session: AsyncSession) -> None:
        session.live = session.routing_id

    def suspend(self, session: AsyncSession) -> None:
        state = TicketState(
            session_id=session.routing_id,
            user_public=b"",
            hv_signing_secret=b"",
            resumption_secret=self._rng.random_bytes(32),
            send_watermark=0,
            recv_watermark=0,
        )
        session.parked = self._sealer.mint(state, epoch=self.epoch)
        session.live = None

    def resume(self, session: AsyncSession) -> None:
        state = self._sealer.redeem(session.parked, current_epoch=self.epoch)
        session.parked = None
        session.live = state

    def close(self, session: AsyncSession) -> None:
        session.live = None

    def advance_epoch(self) -> None:
        """Model a hypervisor restart: outstanding tickets go stale."""
        self.epoch += 1


@dataclass
class ServiceTenant:
    """One real tenant: its client, its live sessions, and home device."""

    client: Any                 # PreExecutionClient
    sessions: dict              # device index -> current session
    device_index: int = 0


class ServiceHandshakeEngine:
    """The full-pipeline engine for integration runs.

    ``open`` performs real attestation+DHKE; ``suspend``/``resume`` go
    through the hypervisor's ticket mint/redeem; ``close`` ends the
    device's session.  Every establishment and resumption replaces the
    entry in the tenant's ``sessions``, so FailoverBundle payloads built
    over that mapping follow the session across suspensions and
    hypervisor restarts alike.
    """

    def __init__(self, service: Any,
                 tenants: dict[bytes, ServiceTenant]) -> None:
        self.service = service
        self.tenants = tenants
        cost = service.devices[0].hypervisor.cost
        self.full_handshake_us = cost.attestation_us + cost.dhke_us
        self.resume_us = cost.ticket_resume_us

    def _tenant(self, session: AsyncSession) -> ServiceTenant:
        return self.tenants[session.routing_id]

    def open(self, session: AsyncSession) -> None:
        tenant = self._tenant(session)
        device = self.service.devices[tenant.device_index]
        session.live = tenant.client.connect(self.service, device)
        session.device_index = tenant.device_index
        tenant.sessions[tenant.device_index] = session.live

    def suspend(self, session: AsyncSession) -> None:
        tenant = self._tenant(session)
        session.parked = tenant.client.suspend(session.live)
        session.live = None

    def resume(self, session: AsyncSession) -> None:
        tenant = self._tenant(session)
        session.live = tenant.client.resume(session.parked)
        session.parked = None
        tenant.sessions[tenant.device_index] = session.live

    def close(self, session: AsyncSession) -> None:
        live, session.live = session.live, None
        self._tenant(session).client.close(live)


# ----------------------------------------------------------------------
# The tier
# ----------------------------------------------------------------------

@dataclass
class AsyncServingConfig:
    """Admission and lifecycle policy for one tier."""

    # Non-blocking admission: live sessions (any non-CLOSED state) above
    # this raise a typed SessionCapacityError instead of queueing.
    max_sessions: int = 16_384
    # Idle eviction: an ACTIVE session with nothing queued or in flight
    # for this long is suspended into a ticket.  ``None`` disables it,
    # which is what the identity gate runs with.
    suspend_after_us: float | None = 2_000_000.0


class AsyncServingTier:
    """Event-driven multiplexer of AsyncSessions onto a gateway frontend."""

    def __init__(
        self,
        frontend: Gateway | ShardSessionRouter,
        engine: Any,
        config: AsyncServingConfig | None = None,
        flight: Any = None,
    ) -> None:
        self.frontend = frontend
        self.reactor = frontend.reactor
        self.engine = engine
        self.config = config or AsyncServingConfig()
        # Deliberately a *separate* registry from the frontend's: tier
        # bookkeeping must not perturb the gateway metrics the identity
        # gate hashes.
        self.metrics = MetricsRegistry()
        # Optional repro.telemetry.flight.FlightRecorder: lifecycle
        # entries ring per session, typed failures seal dumps.
        self.flight = flight
        self.sessions: dict[bytes, AsyncSession] = {}
        self.peak_live = 0

    @property
    def live_sessions(self) -> int:
        """What counts against ``max_sessions``: every record the tier
        holds (a CLOSED one is dropped on the spot)."""
        return len(self.sessions)

    @property
    def _tracer(self):
        """The tier's own tracer, keyed off the *reactor* — not the
        service SimClock the frontend's tracer is keyed off, so
        async-plane spans can never land in (or perturb) its trace."""
        return tracer_for(self.reactor)

    def _note(self, session: AsyncSession, name: str, **data: object) -> None:
        if self.flight is not None:
            self.flight.note(
                session.routing_id, "event", name, self.reactor.now_us, **data
            )

    def _seal(self, session: AsyncSession, cause: str, message: str) -> None:
        """A typed failure: seal the session's ring if ``cause`` triggers."""
        if self.flight is not None:
            self.flight.seal_if_triggered(
                session.routing_id, cause, message, self.reactor.now_us
            )

    # -- admission ------------------------------------------------------

    def _admit(self, routing_id: bytes) -> AsyncSession:
        if routing_id in self.sessions:
            raise ValueError(
                f"session {routing_id.hex()[:16]} is already live"
            )
        if self.live_sessions >= self.config.max_sessions:
            self.metrics.counter("tier.sessions_rejected").inc()
            raise SessionCapacityError(self.config.max_sessions)
        now = self.reactor.now_us
        session = AsyncSession(routing_id=routing_id, last_activity_us=now)
        self.sessions[routing_id] = session
        self.peak_live = max(self.peak_live, self.live_sessions)
        self.metrics.gauge("tier.live_sessions").set(self.live_sessions)
        shard = self._shard_of(session)
        self._tracer.record(
            "tier.admit", "async", 0.0,
            session=routing_id.hex()[:16],
            shard=shard,
            live=self.live_sessions,
        )
        self._note(session, "tier.admit", shard=shard)
        return session

    def open_session(self, routing_id: bytes) -> AsyncSession:
        """Admit and start the full handshake; returns HANDSHAKING."""
        session = self._admit(routing_id)
        self._begin_full_handshake(session)
        return session

    def adopt_session(self, routing_id: bytes) -> AsyncSession:
        """Admit an already-attested session directly as ACTIVE.

        The identity gate uses this: the synchronous baseline also
        establishes its sessions before driving load, so the reactor run
        must not charge a handshake the baseline didn't.
        """
        session = self._admit(routing_id)
        session.transition(SessionState.ACTIVE, self.reactor.now_us)
        return session

    def close_session(self, routing_id: bytes) -> None:
        """End a session in any state; a no-op for one already gone.
        The record goes at once — requests in flight report back through
        the record itself, payloads queued on it are dropped with it —
        and the device is told if the lifecycle says it holds the
        session (a SUSPENDED session's ticket is the user's to discard)."""
        session = self.sessions.pop(routing_id, None)
        if session is None:
            return
        held = device_holds(session.state)
        self._cancel_suspend(session)
        session.transition(SessionState.CLOSED, self.reactor.now_us)
        self.metrics.gauge("tier.live_sessions").set(self.live_sessions)
        if held and self.engine is not None:
            self.engine.close(session)

    def close_all(self) -> None:
        for routing_id in list(self.sessions):
            self.close_session(routing_id)

    # -- submission -----------------------------------------------------

    def submit(
        self,
        routing_id: bytes,
        payload: Any,
        *,
        device_index: int | None = None,
        on_done: Callable[[GatewayRequest], None] | None = None,
    ) -> None:
        """Non-blocking: dispatch, queue on the session, or start a resume.

        The frontend's ``submit`` minus ``at_us`` (the tier only ever
        submits "now"); ``device_index``, when given, re-homes the
        session.  ``on_done`` fires after the tier's own bookkeeping.
        """
        session = self.sessions.get(routing_id)
        if session is None:
            raise SessionClosedError(
                f"no live session {routing_id.hex()[:16]}"
            )
        if device_index is not None:
            session.device_index = device_index
        session.last_activity_us = self.reactor.now_us
        self._cancel_suspend(session)
        if session.state == SessionState.ACTIVE:
            self._dispatch(session, payload, on_done)
            return
        # Not ACTIVE: queue on the session.  HANDSHAKING or RESUMED has a
        # handshake in flight already; SUSPENDED starts its resume.
        session.backlog.append((payload, on_done))
        if session.state == SessionState.SUSPENDED:
            self._begin_resume(session)

    def _dispatch(self, session: AsyncSession, payload: Any, on_done) -> None:
        session.in_flight += 1
        request = self.frontend.submit(
            session.routing_id,
            payload,
            device_index=session.device_index,
            on_done=partial(self._absorb, session, on_done),
        )
        if request.status != RequestStatus.REJECTED:
            self._note(
                session, "tier.dispatch", request_id=request.request_id
            )

    def _absorb(self, session: AsyncSession, on_done,
                request: GatewayRequest) -> None:
        """A dispatched request left the frontend (shed at its door
        included): account it, and re-arm idle eviction if that left
        the session with nothing queued or in flight."""
        if request.status == RequestStatus.REJECTED:
            self._note(
                session, "tier.dispatch_rejected",
                request_id=request.request_id,
                reason=request.reject_reason,
            )
        elif request.status == RequestStatus.FAILED:
            failure = request.failure
            self._note(
                session, "tier.request_failed",
                request_id=request.request_id, cause=failure.cause_type,
            )
            self._seal(session, failure.cause_type, failure.message)
        session.in_flight -= 1
        finished_us = request.finished_at_us
        session.last_activity_us = max(session.last_activity_us, finished_us)
        if (session.state == SessionState.ACTIVE
                and not session.in_flight and not session.backlog):
            self._arm_suspend(session, session.last_activity_us)
        if on_done is not None:
            on_done(request)

    # -- handshakes -----------------------------------------------------

    def _begin_full_handshake(self, session: AsyncSession) -> None:
        self.engine.open(session)
        self._handshake_in_flight(session, "full", self.engine.full_handshake_us)

    def _handshake_in_flight(self, session: AsyncSession, kind: str,
                             delay_us: float, **attributes: object) -> None:
        """The engine has run the handshake; it lands in ``delay_us``."""
        tracer = self._tracer
        if tracer.enabled:
            session.handshake_span = tracer.start_span(
                "tier.handshake", "async",
                attributes={
                    "session": session.routing_id.hex()[:16],
                    "kind": kind,
                    **attributes,
                },
            )
        self._note(session, "tier.handshake_begin", kind=kind, **attributes)
        self.reactor.call_later(
            delay_us, self._finish_handshake, session, kind, delay_us
        )

    def _begin_resume(self, session: AsyncSession) -> None:
        try:
            self.engine.resume(session)
        except StaleTicketError as stale:
            # The hypervisor restarted since the mint.  Typed, counted,
            # and resolved by a fresh full handshake — never retried as
            # a transient fault (the sealed secrets are gone for good).
            session.parked = None
            self.metrics.counter("tier.stale_tickets").inc()
            self._tracer.record(
                "tier.stale_fallback", "async", 0.0,
                session=session.routing_id.hex()[:16],
                minted_epoch=stale.minted_epoch,
                current_epoch=stale.current_epoch,
            )
            self._note(
                session, "tier.stale_fallback",
                minted_epoch=stale.minted_epoch,
                current_epoch=stale.current_epoch,
            )
            self._seal(session, type(stale).__name__, str(stale))
            session.transition(SessionState.HANDSHAKING, self.reactor.now_us)
            self._begin_full_handshake(session)
            return
        session.transition(SessionState.RESUMED, self.reactor.now_us)
        self._handshake_in_flight(
            session, "resumed", self.engine.resume_us,
            shard=self._shard_of(session),
        )

    def _finish_handshake(self, session: AsyncSession, kind: str,
                          took_us: float) -> None:
        open_span, session.handshake_span = session.handshake_span, None
        if session.state == SessionState.CLOSED:
            if open_span is not None:
                self._tracer.end_span(open_span.set(outcome="closed"))
            return
        session.transition(SessionState.ACTIVE, self.reactor.now_us)
        self.metrics.counter(
            "tier.full_handshakes" if kind == "full" else "tier.resumed"
        ).inc()
        self.metrics.histogram(f"tier.handshake_{kind}_us").observe(took_us)
        backlog, session.backlog = session.backlog, []
        if open_span is not None:
            self._tracer.end_span(
                open_span.set(outcome="active", backlog=len(backlog))
            )
        self._note(session, "tier.handshake_done", kind=kind,
                   backlog=len(backlog))
        for entry in backlog:
            self._dispatch(session, *entry)
        if not backlog:
            self._arm_suspend(session, self.reactor.now_us)

    # -- suspension -----------------------------------------------------

    def _cancel_suspend(self, session: AsyncSession) -> None:
        if session.suspend_timer is not None:
            session.suspend_timer.cancel()
            session.suspend_timer = None

    def _arm_suspend(self, session: AsyncSession, base_us: float) -> None:
        if self.config.suspend_after_us is None:
            return
        if session.state != SessionState.ACTIVE or session.in_flight:
            return
        self._cancel_suspend(session)
        session.suspend_timer = self.reactor.call_at(
            max(base_us, self.reactor.now_us) + self.config.suspend_after_us,
            self._maybe_suspend, session,
        )

    def _maybe_suspend(self, session: AsyncSession) -> None:
        session.suspend_timer = None
        if (session.state != SessionState.ACTIVE or session.in_flight
                or session.backlog):
            return
        self.engine.suspend(session)
        session.transition(SessionState.SUSPENDED, self.reactor.now_us)
        session.suspends += 1
        self.metrics.counter("tier.suspended").inc()
        shard = self._shard_of(session)
        self._tracer.record(
            "tier.suspend", "async", 0.0,
            session=session.routing_id.hex()[:16],
            shard=shard,
            suspends=session.suspends,
        )
        self._note(session, "tier.suspend", shard=shard)

    # -- topology -------------------------------------------------------

    def _shard_of(self, session: AsyncSession) -> int:
        """The shard the router places ``session`` on; -1 behind a lone
        gateway.  Asked afresh each time, never stored."""
        if isinstance(self.frontend, ShardSessionRouter):
            return self.frontend.shard_for_session(session.routing_id)
        return -1

    def rebind_frontend(self, frontend: Gateway | ShardSessionRouter) -> None:
        """Swap the frontend (topology change).  Callers drain first:
        in-flight requests on the old frontend are not migrated."""
        if frontend.reactor is not self.reactor:
            raise ValueError("the new frontend must share the tier's reactor")
        self.frontend = frontend

    # -- running and reporting -----------------------------------------

    def run(self) -> None:
        """Run the reactor to idle: tier events and frontend completions
        are the same heap, so this is all of quiescence."""
        self.reactor.run_until_idle()

    def load_metrics(self) -> dict[str, float]:
        return self.frontend.load_metrics()


__all__ = [
    "AsyncServingConfig",
    "AsyncServingTier",
    "AsyncSession",
    "ModelHandshakeEngine",
    "ServiceHandshakeEngine",
    "ServiceTenant",
    "SessionCapacityError",
    "SessionClosedError",
]
