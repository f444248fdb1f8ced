"""The observability plane end to end: async-plane spans, S2 trace
metadata, the plane-labelled Prometheus exposition, armed flight
recorders, and the node's unified-trace RPC.

The byte-identity half of the story (arming the full stack changes
nothing the frontend emits) is gated by ``obs-bench``; these tests pin
the individual seams.
"""

import json

import pytest

from repro.async_serving.tier import (
    AsyncServingConfig,
    AsyncServingTier,
    ModelHandshakeEngine,
)
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hardware.timing import CostModel
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.hypervisor.lifecycle import SessionState
from repro.serving.gateway import FleetModelExecutor, Gateway, GatewayConfig
from repro.serving.loadgen import synthetic_profiles
from repro.serving.metrics import MetricsRegistry
from repro.serving.reactor import VirtualReactor
from repro.serving.router import ShardSessionRouter
from repro.telemetry.exporters import render_chrome_trace, render_prometheus
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.tracer import install_tracer, uninstall_tracer

pytestmark = pytest.mark.observability

COST = CostModel()


@pytest.fixture(scope="module")
def evalset(request):
    return request.getfixturevalue("tiny_evalset")


@pytest.fixture(scope="module")
def service(evalset):
    return HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )


def _model_tier(*, shards=2, flight=None, seed=3, suspend_after_us=1000.0):
    reactor = VirtualReactor()
    gateways = {
        shard: Gateway(
            FleetModelExecutor(2, COST), GatewayConfig(), reactor=reactor
        )
        for shard in range(shards)
    }
    router = ShardSessionRouter(gateways)
    engine = ModelHandshakeEngine(COST, seed=seed)
    tier = AsyncServingTier(
        router, engine,
        config=AsyncServingConfig(suspend_after_us=suspend_after_us),
        flight=flight,
    )
    return tier, reactor, engine


# ---------------------------------------------------------------------
# Async-plane span instrumentation (tentpole: reactor-keyed tracer)
# ---------------------------------------------------------------------

def test_tier_spans_cover_the_session_lifecycle():
    tier, reactor, _ = _model_tier()
    tracer = install_tracer(reactor)
    try:
        profiles = synthetic_profiles(COST, "mixed", count=4, seed=3)
        tier.open_session(b"observed-user")
        tier.submit(b"observed-user", profiles[0])
        tier.run()                       # handshake, serve, idle, suspend
        tier.submit(b"observed-user", profiles[1])
        tier.run()                       # resume via ticket, serve again
        names = [span.name for span in tracer.spans]
        assert "tier.admit" in names
        assert "tier.suspend" in names
        handshakes = [s for s in tracer.spans if s.name == "tier.handshake"]
        assert [s.attributes["kind"] for s in handshakes] == ["full", "resumed"]
        # Open spans were closed with an outcome at completion time.
        assert all(s.attributes["outcome"] == "active" for s in handshakes)
        assert all(s.end_us is not None and s.end_us >= s.start_us
                   for s in handshakes)
        assert all(span.layer == "async" for span in tracer.spans)
    finally:
        uninstall_tracer(reactor)


def test_stale_fallback_records_epochs():
    tier, reactor, engine = _model_tier()
    tracer = install_tracer(reactor)
    try:
        profiles = synthetic_profiles(COST, "mixed", count=4, seed=3)
        tier.open_session(b"bumped-user")
        tier.submit(b"bumped-user", profiles[0])
        tier.run()
        engine.advance_epoch()           # hypervisor "restart"
        tier.submit(b"bumped-user", profiles[1])
        tier.run()
        stale = [s for s in tracer.spans if s.name == "tier.stale_fallback"]
        assert len(stale) == 1
        assert stale[0].attributes["minted_epoch"] == 0
        assert stale[0].attributes["current_epoch"] == 1
        # The session recovered through the fallback full handshake.
        kinds = [s.attributes["kind"] for s in tracer.spans
                 if s.name == "tier.handshake"]
        assert kinds == ["full", "full"]
    finally:
        uninstall_tracer(reactor)


def test_tier_spans_never_touch_a_frontend_tracer(service):
    # The tier's tracer is keyed off the *reactor*; a tracer installed on
    # the service clock must see none of the async-plane spans.
    frontend = install_tracer(service.clock)
    try:
        tier, reactor, _ = _model_tier()
        tracer = install_tracer(reactor)
        try:
            tier.open_session(b"domain-user")
            tier.run()
            assert tracer.spans
            assert frontend.spans == []
        finally:
            uninstall_tracer(reactor)
    finally:
        uninstall_tracer(service.clock)


# ---------------------------------------------------------------------
# S2: ticket mint/resume spans carry session/tenant/epoch/seq
# ---------------------------------------------------------------------

def test_mint_and_resume_spans_carry_identity_metadata(service):
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x21" * 32
    )
    tracer = install_tracer(service.clock)
    try:
        session = client.connect(service)
        suspended = client.suspend(session)
        resumed = client.resume(suspended)
        assert resumed.session_id != session.session_id

        mints = [s for s in tracer.spans if s.name == "session.ticket_mint"]
        resumes = [s for s in tracer.spans if s.name == "session.resume"]
        assert len(mints) == 1 and len(resumes) == 1
        mint, resume = mints[0].attributes, resumes[0].attributes
        assert mint["session"] == session.session_id.hex()[:16]
        assert len(mint["tenant"]) == 16
        # Placement is the router's: the device's spans carry no shard.
        assert "shard" not in mint and "shard" not in resume
        assert (mint["epoch"], mint["seq"]) == (0, 0)
        # The resume names the same ticket and the same tenant, so a
        # resumed session is attributable in the timeline (S2).
        assert resume["resumed_from"] == session.session_id.hex()[:16]
        assert resume["tenant"] == mint["tenant"]
        assert (resume["epoch"], resume["seq"]) == (0, 0)

        # And the metadata survives into the Chrome export as args.
        document = json.loads(render_chrome_trace(tracer))
        mint_events = [e for e in document["traceEvents"]
                       if e.get("name") == "session.ticket_mint"]
        assert mint_events[0]["args"]["epoch"] == 0
        assert mint_events[0]["args"]["tenant"] == mint["tenant"]
    finally:
        uninstall_tracer(service.clock)


# ---------------------------------------------------------------------
# S1: plane-labelled Prometheus exposition, frontend bytes unchanged
# ---------------------------------------------------------------------

def test_prometheus_planes_parameter_is_byte_invisible_when_unused():
    registry = MetricsRegistry()
    registry.counter("gateway.submitted").inc(7)
    registry.gauge("gateway.queue_depth").set(2)
    registry.histogram("gateway.latency_us").observe(130.0)
    assert render_prometheus(registry) == render_prometheus(registry, planes=None)
    assert render_prometheus(registry) == render_prometheus(registry, planes={})


def test_prometheus_async_plane_renders_labelled_after_frontend():
    registry = MetricsRegistry()
    registry.counter("gateway.submitted").inc(7)
    tier, _, _ = _model_tier()
    profiles = synthetic_profiles(COST, "mixed", count=4, seed=3)
    tier.open_session(b"plane-user")
    tier.submit(b"plane-user", profiles[0])
    tier.run()

    frontend_only = render_prometheus(registry)
    combined = render_prometheus(registry, planes={"async": tier.metrics})
    # The frontend exposition is a byte-identical prefix (S1 regression).
    assert combined.startswith(frontend_only.rstrip("\n"))
    plane_lines = [line for line in combined.splitlines()
                   if 'plane="async"' in line]
    assert any("tier_live_sessions" in line for line in plane_lines)
    assert any("tier_full_handshakes_total" in line for line in plane_lines)
    # No frontend line grew a plane label.
    assert not any('plane="async"' in line
                   for line in frontend_only.splitlines())


# ---------------------------------------------------------------------
# Flight recorder armed on the tier
# ---------------------------------------------------------------------

def test_epoch_bump_seals_a_stale_ticket_dump():
    flight = FlightRecorder(capacity=16)
    tier, _, engine = _model_tier(flight=flight)
    profiles = synthetic_profiles(COST, "mixed", count=4, seed=3)
    tier.open_session(b"doomed-user")
    tier.submit(b"doomed-user", profiles[0])
    tier.run()
    assert flight.dumps == []            # clean so far
    engine.advance_epoch()
    tier.submit(b"doomed-user", profiles[1])
    tier.run()

    assert len(flight.dumps) == 1
    dump = flight.dumps[0]
    assert dump.cause_type == "StaleTicketError"
    assert dump.session_id == b"doomed-user".hex()
    # The ring captured the session's life up to the failure.
    names = [entry.name for entry in dump.entries]
    assert "tier.handshake_begin" in names
    assert "tier.suspend" in names
    assert names[-1] == "tier.stale_fallback"
    # The session still recovered (dump is observability, not control).
    assert tier.sessions[b"doomed-user"].state in (
        SessionState.ACTIVE, SessionState.SUSPENDED
    )


def test_clean_run_seals_nothing():
    flight = FlightRecorder(capacity=16)
    tier, _, _ = _model_tier(flight=flight)
    profiles = synthetic_profiles(COST, "mixed", count=4, seed=3)
    for n in range(3):
        rid = b"clean-%d" % n
        tier.open_session(rid)
        tier.submit(rid, profiles[n])
    tier.run()
    assert flight.dumps == []
    assert flight.session_count == 3     # rings recorded, nothing sealed


# ---------------------------------------------------------------------
# Node RPC: unified trace lifted from debug_traceTransaction
# ---------------------------------------------------------------------

def test_node_unified_trace_commits_deterministically(evalset):
    node = evalset.node
    block = next(n for n in range(1, node.height + 1)
                 if node.block_at(n).block.transactions)
    first = node.unified_trace(block, 0)
    second = node.unified_trace(block, 0)
    assert first.instructions > 0
    assert first.commitment() == second.commitment()
    assert sum(first.group_counts().values()) == first.instructions
    # The committed schema drops stacks but keeps the debug trace's view.
    logs, _ = node.debug_trace_transaction(block, 0)
    assert [r.op for r in first.records] == [log.op for log in logs]
