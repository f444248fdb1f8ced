"""The async serving plane: reactor, session state machine, tier."""

import functools
import re
from pathlib import Path

import pytest

from repro.async_serving.tier import (
    AsyncServingConfig,
    AsyncServingTier,
    AsyncSession,
    ModelHandshakeEngine,
    SessionCapacityError,
    SessionClosedError,
)
from repro.hardware.timing import CostModel
from repro.hypervisor import lifecycle
from repro.hypervisor.lifecycle import InvalidSessionTransition, SessionState
from repro.serving.gateway import (
    FleetModelExecutor,
    Gateway,
    GatewayConfig,
    RejectReason,
    RequestStatus,
)
from repro.serving.loadgen import synthetic_profiles
from repro.serving.reactor import COMPLETION, VirtualReactor
from repro.serving.router import ShardSessionRouter
from repro.telemetry.flight import FlightRecorder

pytestmark = pytest.mark.serving

COST = CostModel()
FULL_US = COST.attestation_us + COST.dhke_us


# ---------------------------------------------------------------------
# VirtualReactor
# ---------------------------------------------------------------------

def test_reactor_fires_in_time_then_scheduling_order():
    reactor = VirtualReactor()
    fired = []
    reactor.call_at(20.0, fired.append, "late")
    reactor.call_at(10.0, fired.append, "early-first")
    reactor.call_at(10.0, fired.append, "early-second")
    assert reactor.run_until_idle() == 3
    assert fired == ["early-first", "early-second", "late"]
    assert reactor.now_us == 20.0


def test_reactor_run_until_lands_on_deadline():
    reactor = VirtualReactor()
    fired = []
    reactor.call_at(5.0, fired.append, "a")
    reactor.call_at(15.0, fired.append, "b")
    assert reactor.run_until(10.0) == 1
    assert fired == ["a"]
    assert reactor.now_us == 10.0
    assert reactor.pending == 1


def test_reactor_rejects_scheduling_in_the_past():
    reactor = VirtualReactor(start_us=100.0)
    with pytest.raises(ValueError):
        reactor.call_at(99.0, lambda: None)
    with pytest.raises(ValueError):
        reactor.call_later(-1.0, lambda: None)


def test_reactor_cancel_is_idempotent_and_skipped():
    reactor = VirtualReactor()
    fired = []
    handle = reactor.call_at(5.0, fired.append, "cancelled")
    kept = reactor.call_at(6.0, fired.append, "kept")
    handle.cancel()
    handle.cancel()
    assert reactor.pending == 1
    assert reactor.run_until_idle() == 1
    assert fired == ["kept"]
    # Once the event has fired, cancel() is a no-op too.
    kept.cancel()
    assert reactor.pending == 0


def test_reactor_callbacks_can_schedule_same_instant():
    reactor = VirtualReactor()
    fired = []

    def chain():
        fired.append("first")
        reactor.call_at(reactor.now_us, fired.append, "second")

    reactor.call_at(3.0, chain)
    reactor.run_until_idle()
    assert fired == ["first", "second"]


def test_same_instant_completions_fire_before_arrivals():
    """The rank rule, on one reactor shared by a gateway and its driver:
    at T a due completion runs before an arrival, and a zero-service
    completion the arrival creates at T runs before the next arrival."""

    class ScriptedExecutor:
        slots = [None]

        def execute(self, request, start_us):
            return request.payload, None  # the payload is the service time

    reactor = VirtualReactor()
    gateway = Gateway(ScriptedExecutor(), GatewayConfig(), reactor=reactor)
    order = []

    def done(request):
        order.append(("done", request.session_id, reactor.now_us))

    def arrive(session_id, service_us):
        order.append(("arrive", session_id, reactor.now_us))
        gateway.submit(session_id, service_us, on_done=done)

    # Scheduled first, yet the completion due at 10 overtakes both.
    reactor.call_at(10.0, arrive, b"zero", 0.0)
    reactor.call_at(10.0, arrive, b"late", 5.0)
    reactor.call_at(0.0, arrive, b"first", 10.0)
    reactor.run_until_idle()
    assert order == [
        ("arrive", b"first", 0.0),
        ("done", b"first", 10.0),     # completion at T before arrivals at T
        ("arrive", b"zero", 10.0),
        ("done", b"zero", 10.0),      # created at T, still ahead of "late"
        ("arrive", b"late", 10.0),
        ("done", b"late", 15.0),
    ]
    # The rule is the heap key, for any caller.
    fired = []
    reactor.call_at(20.0, fired.append, "arrival")
    reactor.call_at(20.0, fired.append, "completion", rank=COMPLETION)
    reactor.run_until_idle()
    assert fired == ["completion", "arrival"]


# ---------------------------------------------------------------------
# Session state machine
# ---------------------------------------------------------------------

def test_session_lifecycle_walk():
    session = AsyncSession(routing_id=b"s1")
    for dst in (SessionState.ACTIVE, SessionState.SUSPENDED,
                SessionState.RESUMED, SessionState.ACTIVE,
                SessionState.CLOSED):
        session.transition(dst, 1.0)
    assert session.state == SessionState.CLOSED


def test_stale_fallback_edge_is_legal():
    session = AsyncSession(routing_id=b"s1")
    session.transition(SessionState.ACTIVE, 1.0)
    session.transition(SessionState.SUSPENDED, 2.0)
    session.transition(SessionState.HANDSHAKING, 3.0)  # stale-ticket path
    session.transition(SessionState.ACTIVE, 4.0)
    assert session.state == SessionState.ACTIVE


def test_illegal_transition_is_typed():
    session = AsyncSession(routing_id=b"s1")
    with pytest.raises(InvalidSessionTransition) as excinfo:
        session.transition(SessionState.SUSPENDED, 1.0)
    assert excinfo.value.src == SessionState.HANDSHAKING
    assert excinfo.value.dst == SessionState.SUSPENDED
    session.transition(SessionState.CLOSED, 1.0)
    with pytest.raises(InvalidSessionTransition):
        session.transition(SessionState.ACTIVE, 2.0)


def test_the_lifecycle_is_declared_once_and_the_session_table_has_two_doors():
    """Plain-text guards on the shape ROADMAP 3 (b) asked for: one module
    declares the states and legal edges, and in ``hypervisor.py`` one
    statement adds to the session table and one removes from it."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    declaring = sorted(
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if re.search(
            r"^class SessionState|^(EDGES|_ALLOWED|LIVE_STATES)\b",
            path.read_text(), re.MULTILINE,
        )
    )
    assert declaring == ["hypervisor/lifecycle.py"]
    firmware = (src / "hypervisor" / "hypervisor.py").read_text()
    mutations = re.findall(
        r"self\._sessions(?:\[[^\]]+\] = |\.(?:pop|clear|update|setdefault|popitem)\()"
        r"|del self\._sessions",
        firmware,
    )
    assert mutations == ["self._sessions[session_id] = ", "self._sessions.pop("]
    assert len(firmware.splitlines()) < 729  # the PR 14 condition, kept

    # The table is closed under its own states; CLOSED is terminal; the
    # device holds a session exactly in the three states a handshake or
    # a dispatch can be running in.
    states = {
        value for name, value in vars(SessionState).items()
        if not name.startswith("_")
    }
    assert set(lifecycle.EDGES) == states
    assert all(targets <= states for targets in lifecycle.EDGES.values())
    assert lifecycle.EDGES[SessionState.CLOSED] == frozenset()
    assert all(
        SessionState.CLOSED in targets
        for state, targets in lifecycle.EDGES.items()
        if state != SessionState.CLOSED
    )
    assert {state for state in states if lifecycle.device_holds(state)} == {
        SessionState.HANDSHAKING, SessionState.ACTIVE, SessionState.RESUMED,
    }


# ---------------------------------------------------------------------
# Tier over a model gateway
# ---------------------------------------------------------------------

def _tier(max_sessions=64, suspend_after_us=1000.0, cores=4):
    gateway = Gateway(
        FleetModelExecutor(cores, COST),
        GatewayConfig(max_queue_depth=256, max_in_flight_per_session=4),
    )
    tier = AsyncServingTier(
        gateway,
        ModelHandshakeEngine(COST, seed=7),
        config=AsyncServingConfig(
            max_sessions=max_sessions, suspend_after_us=suspend_after_us
        ),
    )
    return tier, synthetic_profiles(COST, "mixed", count=4, seed=7)


def test_tier_capacity_is_typed_and_counted():
    tier, _ = _tier(max_sessions=2)
    tier.open_session(b"a")
    tier.open_session(b"b")
    with pytest.raises(SessionCapacityError):
        tier.open_session(b"c")
    assert tier.metrics.snapshot()["tier.sessions_rejected"] == 1
    with pytest.raises(ValueError):
        tier.open_session(b"a")  # duplicate live session


def test_tier_submit_to_unknown_session_is_typed():
    tier, profiles = _tier()
    with pytest.raises(SessionClosedError):
        tier.submit(b"ghost", profiles[0])


def test_tier_backlogs_during_handshake_then_flushes():
    tier, profiles = _tier(suspend_after_us=None)
    session = tier.open_session(b"a")
    done = []
    tier.submit(b"a", profiles[0], on_done=done.append)
    tier.submit(b"a", profiles[1], on_done=done.append)
    assert session.state == SessionState.HANDSHAKING
    assert len(session.backlog) == 2
    tier.run()
    assert session.state == SessionState.ACTIVE
    assert not session.backlog
    assert [request.status for request in done] == [RequestStatus.COMPLETED] * 2
    snap = tier.metrics.snapshot()
    assert snap["tier.full_handshakes"] == 1
    assert snap["tier.handshake_full_us.p50"] == FULL_US


def test_tier_suspends_idle_sessions_and_resumes_on_traffic():
    tier, profiles = _tier(suspend_after_us=1000.0)
    session = tier.open_session(b"a")
    done = []
    tier.submit(b"a", profiles[0], on_done=done.append)
    tier.run()
    assert session.state == SessionState.SUSPENDED
    assert session.parked is not None  # a real sealed ticket

    # Traffic wakes it: a one-round-trip resume.
    tier.submit(b"a", profiles[1], on_done=done.append)
    assert session.state == SessionState.RESUMED
    tier.run()
    snap = tier.metrics.snapshot()
    assert snap["tier.resumed"] == 1
    assert snap["tier.suspended"] >= 1
    assert snap["tier.handshake_resumed_us.p50"] == COST.ticket_resume_us
    assert COST.ticket_resume_us <= 0.05 * FULL_US
    assert [request.status for request in done] == [RequestStatus.COMPLETED] * 2


def test_tier_epoch_bump_falls_back_typed_not_retried():
    tier, profiles = _tier(suspend_after_us=1000.0)
    engine = tier.engine
    session = tier.open_session(b"a")
    done = []
    tier.submit(b"a", profiles[0], on_done=done.append)
    tier.run()
    assert session.state == SessionState.SUSPENDED

    engine.advance_epoch()            # model hypervisor restart
    tier.submit(b"a", profiles[1], on_done=done.append)
    # Stale ticket: back to HANDSHAKING, full handshake in flight.
    assert session.state == SessionState.HANDSHAKING
    assert session.parked is None     # the dead ticket is dropped
    tier.run()
    snap = tier.metrics.snapshot()
    assert snap["tier.stale_tickets"] == 1
    # Never satisfied by the dead ticket: no resume was ever recorded.
    assert snap.get("tier.resumed", 0) == 0
    assert snap["tier.full_handshakes"] == 2
    assert [request.status for request in done] == [RequestStatus.COMPLETED] * 2


def test_tier_close_releases_capacity():
    tier, profiles = _tier(max_sessions=1)
    session = tier.open_session(b"a")
    tier.run()
    tier.close_session(b"a")
    assert tier.live_sessions == 0 and b"a" not in tier.sessions
    assert session.state == SessionState.CLOSED
    tier.close_session(b"a")          # already gone: a no-op
    with pytest.raises(SessionClosedError):
        tier.submit(b"a", profiles[0])
    tier.open_session(b"b")           # slot is free again
    assert tier.live_sessions == 1


def test_a_request_in_flight_at_close_reports_to_the_record_it_left():
    """Closing drops the record at once; the in-flight request still
    lands (bound to the old record), and a session re-opened under the
    same id meanwhile is not charged for it."""
    tier, profiles = _tier(suspend_after_us=None)
    old = tier.adopt_session(b"a")
    done = []
    tier.submit(b"a", profiles[0], on_done=done.append)
    assert old.in_flight == 1
    tier.close_session(b"a")
    new = tier.open_session(b"a")
    tier.run()
    assert [request.status for request in done] == [RequestStatus.COMPLETED]
    assert old.in_flight == 0 and new.in_flight == 0
    assert new.state == SessionState.ACTIVE and tier.sessions[b"a"] is new


def test_tier_seeded_run_is_deterministic():
    def run_once():
        tier, profiles = _tier(suspend_after_us=500.0)
        done = []
        for i in range(8):
            rid = b"s%02d" % i
            tier.reactor.call_at(i * 10.0, tier.open_session, rid)
            tier.reactor.call_at(
                i * 10.0 + 2000.0,
                functools.partial(tier.submit, on_done=done.append),
                rid, profiles[i % len(profiles)],
            )
        tier.run()
        return tier.metrics.snapshot(), [
            (request.session_id, request.finished_at_us) for request in done
        ]

    assert run_once() == run_once()


def test_tier_rearms_idle_eviction_after_a_shed_dispatch():
    gateway = Gateway(
        FleetModelExecutor(1, COST), GatewayConfig(max_queue_depth=0)
    )
    tier = AsyncServingTier(
        gateway, engine=ModelHandshakeEngine(COST, seed=7),
        config=AsyncServingConfig(suspend_after_us=1000.0),
    )
    session = tier.adopt_session(b"a")
    done = []
    tier.submit(b"a", synthetic_profiles(COST, "mixed", count=1, seed=7)[0],
                on_done=done.append)
    (shed,) = done
    assert shed.status == RequestStatus.REJECTED
    assert shed.reject_reason == RejectReason.QUEUE_FULL
    assert session.in_flight == 0 and session.suspend_timer is not None
    tier.run()
    assert session.state == SessionState.SUSPENDED


def test_tier_derives_shard_affinity_from_router():
    """The shard the tier's flight notes carry is the frontend's answer
    when each note is written: the ring's shard behind a router, the new
    ring's after a ring change, and -1 once behind a lone gateway."""
    reactor = VirtualReactor()

    def gateway():
        return Gateway(FleetModelExecutor(2, COST), GatewayConfig(),
                       reactor=reactor)

    small = ShardSessionRouter({shard: gateway() for shard in range(2)})
    big = ShardSessionRouter({shard: gateway() for shard in range(8)})
    rid = next(
        rid for rid in (b"user-%02d" % i for i in range(64))
        if small.shard_for_session(rid) != big.shard_for_session(rid)
    )
    flight = FlightRecorder()
    tier = AsyncServingTier(
        small, ModelHandshakeEngine(COST, seed=7),
        config=AsyncServingConfig(suspend_after_us=1000.0), flight=flight,
    )
    (profile,) = synthetic_profiles(COST, "mixed", count=1, seed=7)
    tier.open_session(rid)
    for frontend in (small, big, gateway()):
        if frontend is not small:
            tier.rebind_frontend(frontend)
        tier.submit(rid, profile)
        tier.run()

    on_small, on_big = small.shard_for_session(rid), big.shard_for_session(rid)
    assert [
        (entry.name, dict(entry.data)["shard"])
        for entry in flight.ring_of(rid)
        if "shard" in dict(entry.data)
    ] == [
        ("tier.admit", on_small), ("tier.suspend", on_small),
        ("tier.handshake_begin", on_big), ("tier.suspend", on_big),
        ("tier.handshake_begin", -1), ("tier.suspend", -1),
    ]
