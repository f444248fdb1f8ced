"""Unit tests for the shard-aware session router (repro.serving.router)."""

import pytest

from repro.serving.gateway import Gateway, GatewayConfig, RequestStatus
from repro.serving.reactor import VirtualReactor
from repro.serving.router import ShardSessionRouter

pytestmark = [pytest.mark.sharding, pytest.mark.serving]


class StubExecutor:
    """Fixed-duration executor (the serving test-suite idiom)."""

    def __init__(self, slot_count=2, service_us=100.0):
        self.slots = [None] * slot_count
        self.service_us = service_us
        self.executed = []

    def execute(self, request, start_us):
        self.executed.append(request.request_id)
        return self.service_us, ("ran", request.request_id)


def _router(shard_count=4):
    reactor = VirtualReactor()
    gateways = {
        sid: Gateway(
            StubExecutor(), GatewayConfig(max_queue_depth=64), reactor=reactor
        )
        for sid in range(shard_count)
    }
    return ShardSessionRouter(gateways), gateways


def _sessions(n):
    return [b"session-%04d" % i for i in range(n)]


def test_sessions_are_sticky_and_deterministic():
    router_a, _ = _router()
    router_b, _ = _router()
    for session in _sessions(64):
        shard = router_a.shard_for_session(session)
        assert shard == router_a.shard_for_session(session)  # sticky
        assert shard == router_b.shard_for_session(session)  # seeded
    placements = {router_a.shard_for_session(s) for s in _sessions(64)}
    assert placements == {0, 1, 2, 3}  # every shard gets tenants


def test_session_and_page_rings_are_independent_domains():
    from repro.sharding.ring import ConsistentHashRing

    router, _ = _router()
    page_ring = ConsistentHashRing(range(4))
    placements = [
        (router.shard_for_session(s), page_ring.shard_for(s))
        for s in _sessions(64)
    ]
    assert any(a != b for a, b in placements)  # distinct hash domains


def test_submit_routes_to_owning_gateway_and_counts():
    router, gateways = _router()
    done = []
    requests = [
        router.submit(s, payload=i, on_done=done.append)
        for i, s in enumerate(_sessions(12))
    ]
    router.reactor.run_until_idle()
    assert len(done) == len(requests)
    assert all(r.status is RequestStatus.COMPLETED for r in done)
    executed = {
        sid: len(gateway.executor.executed) for sid, gateway in gateways.items()
    }
    counts = dict.fromkeys(gateways, 0)
    for session in _sessions(12):
        counts[router.shard_for_session(session)] += 1
    assert executed == counts  # each request ran on its session's shard
    snapshot = router.load_metrics()
    for sid, count in counts.items():
        assert snapshot.get(f"shard{sid}.gateway.submitted", 0) == count


def test_submit_has_the_gateway_signature():
    router, _ = _router(2)
    (session,) = _sessions(1)
    first = router.submit(session, payload=0, at_us=250.0)
    # ``at_us=None`` means now: a later submission needs no timestamp...
    second = router.submit(session, payload=1)
    assert second.submitted_at_us == first.submitted_at_us == 250.0
    # ...and everything after the payload is keyword-only, as on Gateway.
    with pytest.raises(TypeError):
        router.submit(session, 2, 300.0)
    with pytest.raises(ValueError, match="forward in virtual time"):
        router.submit(session, payload=2, at_us=100.0)


def test_router_requires_gateways():
    with pytest.raises(ValueError):
        ShardSessionRouter({})


def test_router_refuses_gateways_on_separate_reactors():
    gateways = {sid: Gateway(StubExecutor()) for sid in range(2)}
    with pytest.raises(ValueError, match="share one reactor"):
        ShardSessionRouter(gateways)
