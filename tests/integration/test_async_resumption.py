"""Session resumption end to end: real hypervisor tickets, crash epochs,
and FailoverBundle re-join through the shard router.

Covers the two resumption-specific acceptance criteria:

* a ticket minted before a hypervisor crash is refused after restart
  with a typed ``StaleTicketError`` (epoch mismatch) — never absorbed
  by the fault plane as a retryable fault;
* a resumed session's requests land on the shard the router names:
  the same one while the ring stands, the new ring's after it changes.
"""

import pytest

from repro.async_serving.tier import (
    AsyncServingConfig,
    AsyncServingTier,
    ModelHandshakeEngine,
    ServiceHandshakeEngine,
    ServiceTenant,
)
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.faults.policy import FailoverBundle, RetryPolicy
from repro.hardware.timing import CostModel
from repro.hypervisor.bundle_codec import TransactionBundle, encode_bundle
from repro.hypervisor.hypervisor import SecurityFeatures, UnknownSessionError
from repro.hypervisor.lifecycle import SessionState
from repro.hypervisor.resumption import StaleTicketError
from repro.recovery.supervisor import HypervisorSupervisor
from repro.serving.gateway import FleetModelExecutor, Gateway, GatewayConfig
from repro.serving.loadgen import synthetic_profiles
from repro.serving.reactor import VirtualReactor
from repro.serving.router import ShardSessionRouter

pytestmark = pytest.mark.serving

COST = CostModel()


@pytest.fixture(scope="module")
def service(request):
    evalset = request.getfixturevalue("tiny_evalset")
    return HarDTAPEService(
        evalset.node,
        SecurityFeatures.from_level("full"),
        charge_fees=False,
    )


@pytest.fixture(scope="module")
def evalset(request):
    return request.getfixturevalue("tiny_evalset")


def _client(service, seed=b"\x0a"):
    return PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=seed * 32
    )


# ---------------------------------------------------------------------
# Suspend/resume through the real hypervisor
# ---------------------------------------------------------------------

def test_suspend_evicts_and_resume_restores(service, evalset):
    client = _client(service)
    session = client.connect(service)
    device = session.device
    tx = evalset.transactions[0]
    client.pre_execute(service, session, [tx])

    before = device.hypervisor.session_count
    suspended = client.suspend(session)
    # Eviction is the point: the hypervisor holds nothing for the
    # session; the client holds the opaque ticket.
    assert device.hypervisor.session_count == before - 1

    resumed = client.resume(suspended)
    assert resumed.session_id != session.session_id
    report, _, _ = client.pre_execute(service, resumed, [tx])
    assert report.traces[0].status == 1

    # The evicted pre-suspend session id is gone for good.
    with pytest.raises(UnknownSessionError):
        client.pre_execute(service, session, [tx])


def test_close_scrubs_the_session_and_everything_after_is_typed(service, evalset):
    client = _client(service, seed=b"\x0e")
    session = client.connect(service)
    hypervisor = session.device.hypervisor
    tx = evalset.transactions[0]
    client.pre_execute(service, session, [tx])

    before = hypervisor.session_count
    client.close(session)
    assert hypervisor.session_count == before - 1
    for operation in (
        lambda: client.pre_execute(service, session, [tx]),
        lambda: client.suspend(session),
        lambda: client.close(session),
    ):
        with pytest.raises(UnknownSessionError):
            operation()
    assert hypervisor.session_count == before - 1

    # A suspended session is already gone from the device: nothing to
    # close there, and its ticket still redeems exactly once.
    suspended = client.suspend(client.connect(service))
    with pytest.raises(UnknownSessionError):
        hypervisor.close_session(suspended.session_id)
    client.close(client.resume(suspended))
    assert hypervisor.session_count == before - 1


def test_resume_costs_under_five_percent_of_connect(service):
    client = _client(service, seed=b"\x0b")
    clock = service.clock

    t0 = clock.now_us
    session = client.connect(service)
    connect_us = clock.now_us - t0

    suspended = client.suspend(session)
    t1 = clock.now_us
    client.resume(suspended)
    resume_us = clock.now_us - t1

    assert connect_us >= COST.attestation_us + COST.dhke_us
    assert resume_us <= 0.05 * connect_us


def test_ticket_is_single_use(service):
    client = _client(service, seed=b"\x0c")
    suspended = client.suspend(client.connect(service))
    client.resume(suspended)
    with pytest.raises(Exception) as excinfo:
        client.resume(suspended)
    assert "already redeemed" in str(excinfo.value)


# ---------------------------------------------------------------------
# Crash epoch binding (satellite: stale tickets are typed, not retried)
# ---------------------------------------------------------------------

def test_pre_crash_ticket_refused_typed_after_restart(evalset):
    # A dedicated service: restarting its hypervisor must not disturb
    # the module-scoped fixture other tests share.
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("ES"), charge_fees=False
    )
    client = _client(service)
    suspended = client.suspend(client.connect(service))
    device = service.devices[0]
    assert device.hypervisor.generation == 0

    device.restart_hypervisor(None)
    assert device.hypervisor.generation == 1

    with pytest.raises(StaleTicketError) as excinfo:
        client.resume(suspended)
    error = excinfo.value
    assert error.minted_epoch == 0
    assert error.current_epoch == 1

    # The fault plane must refuse to absorb it: not retryable, and the
    # supervisor seam performs no intervention for it.
    assert RetryPolicy().is_recoverable(error) is False
    assert HypervisorSupervisor(None, None, None).intervene(error, 0) is False

    # The prescribed fallback — a fresh full handshake — still works.
    session = client.connect(service, device)
    assert device.hypervisor.session_count == 1
    assert session.session_id


# ---------------------------------------------------------------------
# Shard placement across suspend/resume and ring changes
# ---------------------------------------------------------------------

def _model_router(shards, reactor=None):
    reactor = reactor or VirtualReactor()
    gateways = {
        shard: Gateway(
            FleetModelExecutor(2, COST), GatewayConfig(), reactor=reactor
        )
        for shard in range(shards)
    }
    return ShardSessionRouter(gateways)


def _landed(router):
    """Requests each shard's gateway took so far, shards that took none
    left out."""
    return {
        int(key.split(".")[0][len("shard"):]): value
        for key, value in router.load_metrics().items()
        if key.endswith(".gateway.submitted") and value
    }


def test_resumed_session_keeps_shard_affinity():
    router = _model_router(4)
    tier = AsyncServingTier(
        router, ModelHandshakeEngine(COST, seed=3),
        config=AsyncServingConfig(suspend_after_us=1000.0),
    )
    profiles = synthetic_profiles(COST, "mixed", count=4, seed=3)
    session = tier.open_session(b"sticky-user")
    tier.submit(b"sticky-user", profiles[0])
    tier.run()
    assert session.state == SessionState.SUSPENDED

    tier.submit(b"sticky-user", profiles[1])
    tier.run()
    assert session.state == SessionState.SUSPENDED
    # Same ring, same shard: both requests, either side of the ticket.
    assert _landed(router) == {router.shard_for_session(b"sticky-user"): 2}


def test_a_ring_change_reroutes_a_resumed_sessions_next_request():
    before = _model_router(2)
    tier = AsyncServingTier(
        before, ModelHandshakeEngine(COST, seed=3),
        config=AsyncServingConfig(suspend_after_us=1000.0),
    )
    profiles = synthetic_profiles(COST, "mixed", count=4, seed=3)
    session = tier.open_session(b"migrating-user")
    tier.submit(b"migrating-user", profiles[0])
    tier.run()
    assert session.state == SessionState.SUSPENDED

    # Topology change while suspended: the resumed session's next
    # request goes where the new ring places it; nothing the ticket or
    # the tier held says otherwise.
    with pytest.raises(ValueError, match="share the tier's reactor"):
        tier.rebind_frontend(_model_router(8))
    bigger = _model_router(8, reactor=tier.reactor)
    tier.rebind_frontend(bigger)
    tier.submit(b"migrating-user", profiles[1])
    tier.run()
    assert tier.metrics.snapshot()["tier.resumed"] == 1
    assert _landed(before) == {before.shard_for_session(b"migrating-user"): 1}
    assert _landed(bigger) == {bigger.shard_for_session(b"migrating-user"): 1}


# ---------------------------------------------------------------------
# FailoverBundle re-join over the tenant's live sessions (real pipeline)
# ---------------------------------------------------------------------

def test_reattachable_bundle_follows_resumed_session(service, evalset):
    client = _client(service, seed=b"\x0d")
    directory: dict = {}  # device index -> the tenant's current session
    tenants = {b"tenant-0": ServiceTenant(client, directory, device_index=0)}
    engine = ServiceHandshakeEngine(service, tenants)
    tier = AsyncServingTier(
        Gateway(
            FleetModelExecutor(2, COST), GatewayConfig(),
            reactor=VirtualReactor(start_us=service.clock.now_us),
        ),
        engine,
        config=AsyncServingConfig(suspend_after_us=1000.0),
    )

    device = service.devices[0]
    before = device.hypervisor.session_count
    session = tier.open_session(b"tenant-0")
    assert device.hypervisor.session_count == before + 1
    first_id = directory[0].session_id

    bundle = TransactionBundle(
        transactions=(evalset.transactions[0],),
        block_number=service.synced_height,
    )
    payload = FailoverBundle(directory, encode_bundle(bundle))

    # Drain to quiescence: the handshake completes, the session idles
    # past the suspend threshold, and the engine parks it via a real
    # hypervisor ticket — the hypervisor evicts its side entirely.
    tier.run()
    assert session.state == SessionState.SUSPENDED
    assert device.hypervisor.session_count == before

    # Wake it: the engine resumes through the ticket and re-points the
    # directory, so the bundle re-resolves to the *resumed* session.
    # (Idle eviction is done proving itself — leave the resumed session
    # live so the bundle can actually be submitted against it.)
    tier.config.suspend_after_us = None
    tier.submit(b"tenant-0", synthetic_profiles(COST, "mixed")[0])
    tier.run()
    assert session.state == SessionState.ACTIVE
    resumed_id = directory[0].session_id
    assert resumed_id != first_id
    assert payload.session_for(0) == resumed_id

    sealed_out, _, _, _ = service.submit_bundle(
        device, payload.session_for(0), payload.seal_for(0)
    )
    assert payload.open_with(0, sealed_out)
