"""The session lifecycle as a stateful model test (ROADMAP 3 (b)).

One ``RuleBasedStateMachine`` over the real stack — ``HarDTAPEService``
and its ``Hypervisor``s, an armed ``RecoveryManager``, a
``HypervisorSupervisor``, a ``ServiceExecutor`` with a retry policy,
and an ``AsyncServingTier(ServiceHandshakeEngine)`` on a gateway or a
shard router — drives every edge of the lifecycle
``repro.hypervisor.lifecycle`` declares, interleaved with the events
that cut across it: hypervisor crash + restart (epoch bump), ring
changes, checkpoints.

The model is what a session's *owner* knows: which sessions it opened,
which device session ids ended by close or suspend, which tickets can
never be honoured again.  After every rule the device, the recovery
record set, a state replayed from checkpoint + journal, the tier and
the reactor are checked against it.  Operations run bare: anything
they raise that a rule does not name fails the run, so every operation
ends in the clean state or the typed error the rule expects.

Settings are pinned (derandomized, fixed example and step counts), so a
red run reproduces from the log alone.
"""

import builtins
import functools

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.async_serving.tier import (
    AsyncServingConfig,
    AsyncServingTier,
    ServiceHandshakeEngine,
    ServiceTenant,
)
from repro.bench.stack import build_service
from repro.core.user import PreExecutionClient
from repro.faults.policy import FailoverBundle, RetryPolicy
from repro.hypervisor.bundle_codec import TransactionBundle, encode_bundle
from repro.hypervisor.channel import ChannelError
from repro.hypervisor.lifecycle import SessionState
from repro.hypervisor.resumption import TicketError
from repro.recovery.manager import RecoveryManager
from repro.recovery.store import DurableStore
from repro.recovery.supervisor import HypervisorSupervisor
from repro.serving.gateway import Gateway, GatewayConfig, RequestStatus, ServiceExecutor
from repro.serving.metrics import MetricsRegistry
from repro.serving.reactor import VirtualReactor
from repro.serving.router import ShardSessionRouter
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

pytestmark = [pytest.mark.serving, pytest.mark.recovery]

DEVICES = 2
TENANTS = 4                      # two per device: never more than its HEVMs
SHARD_COUNTS = (1, 2, 3, 5)      # 1 = a lone gateway, no router
SUSPEND_AFTER_US = 400_000.0     # idle eviction; a full handshake is 100 ms
CHECKPOINT_INTERVAL = 4          # ORAM accesses: a bundle crosses it
HELD = (SessionState.HANDSHAKING, SessionState.ACTIVE, SessionState.RESUMED)

# After a rule acts, how far virtual time moves: not at all (the next
# rule meets the operation mid-flight), past a handshake or a bundle but
# short of idle eviction, or (``None``) all the way to idle.
THEN = st.sampled_from([0.0, 0.0, 150_000.0, None])

# Pinned: a failure names its steps, and the same steps run next time.
MACHINE_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
)


@functools.cache
def _evalset():
    """The smallest world with real contracts in it: every example
    loads it into a fresh ORAM, so its size is the machine's unit cost."""
    return build_evaluation_set(
        EvaluationSetConfig(blocks=1, txs_per_block=4, profile_contract_count=1)
    )


def _recovery_stack(device_count=DEVICES):
    """A fees-off fleet with recovery armed before any session exists."""
    service = build_service(_evalset().node, device_count=device_count)
    store = DurableStore()
    manager = RecoveryManager(
        service.devices[0], store, checkpoint_interval=CHECKPOINT_INTERVAL
    )
    manager.attach(service)
    return service, store, manager


def _tenants(service, count=TENANTS):
    return {
        b"tenant-%d" % index: ServiceTenant(
            PreExecutionClient(
                service.manufacturer.root_public_key,
                rng_seed=bytes([index + 1]) * 32,
            ),
            {},
            device_index=index % len(service.devices),
        )
        for index in range(count)
    }


def _device_sessions(service):
    return {
        session_id
        for device in service.devices
        for session_id in device.hypervisor._sessions
    }


def _records(manager):
    return {
        bytes.fromhex(key) for key in manager.current_state().sessions
    }


class SessionLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.transactions = _evalset().transactions
        service, self.store, manager = _recovery_stack()
        self.service = service
        metrics = MetricsRegistry()
        self.supervisor = HypervisorSupervisor(
            service, manager, self.store, metrics=metrics
        )
        self.supervisor.rejoin_callbacks.append(self._rejoin)
        self.executor = ServiceExecutor(
            service, RetryPolicy(), metrics=metrics,
            supervisor=self.supervisor,
        )
        self.reactor = VirtualReactor(start_us=service.clock.now_us)
        self.gateways = []
        self.shards = 1
        self.tenants = _tenants(service)
        self.tier = AsyncServingTier(
            self._frontend(self.shards),
            ServiceHandshakeEngine(service, self.tenants),
            AsyncServingConfig(suspend_after_us=SUSPEND_AFTER_US),
        )

        # What the sessions' owner knows.
        # Channel key lineage per tenant: every full handshake (open,
        # stale-ticket fallback, re-join after a crash) starts a new one.
        self.lineage = dict.fromkeys(self.tenants, 0)
        self.ended = set()        # device session ids ended by close/suspend
        self.crashed = set()      # ...and those a crash took (records stay)
        self.dead_tickets = []    # (device index, ticket): spent or stale
        self.closed_records = []  # AsyncSession objects the tier let go of
        self.marks = {}           # rid -> (channel lineage, nonce watermark)
        self.submitted = self.dropped = self.undeliverable = 0
        self.outcomes = []
        # rid -> the gateway a woken session's next request must land on
        self.woken = {}

    # -- plumbing -------------------------------------------------------

    def _frontend(self, shards):
        fresh = [
            Gateway(
                self.executor,
                # One request per session in flight: at most two per
                # device, so nothing ever waits in a queue for a slot.
                GatewayConfig(max_in_flight_per_session=1),
                reactor=self.reactor,
            )
            for _ in range(shards)
        ]
        for gateway in fresh:
            gateway.submit = functools.partial(
                self._landed, gateway, gateway.submit
            )
        self.gateways.extend(fresh)
        self.shard_gateways = fresh
        if shards == 1:
            return fresh[0]
        return ShardSessionRouter(dict(enumerate(fresh)))

    @property
    def manager(self):
        return self.supervisor.manager

    def _open_rids(self, *states):
        return [
            rid for rid, session in sorted(self.tier.sessions.items())
            if session.state != SessionState.CLOSED
            and (not states or session.state in states)
        ]

    def _absent_rids(self):
        return [rid for rid in sorted(self.tenants) if rid not in self._open_rids()]

    def _rejoin(self, device_index, device):
        """The tenants' re-join hook: re-attest every session the dead
        hypervisor held, in place (payloads read the mapping live)."""
        for rid in self._open_rids(*HELD):
            tenant = self.tenants[rid]
            if tenant.device_index == device_index:
                session = self.tier.sessions[rid]
                session.live = tenant.client.connect(self.service, device)
                tenant.sessions[device_index] = session.live
                self.lineage[rid] += 1

    def _landed(self, gateway, submit, rid, *args, **kwargs):
        """Every dispatch reaches a gateway through here: the first one
        after a wake-up is checked against the router's placement."""
        expected = self.woken.pop(rid, gateway)
        assert gateway is expected
        return submit(rid, *args, **kwargs)

    def _deliver(self, rid, request):
        self.outcomes.append(request)
        if request.status == RequestStatus.COMPLETED:
            tenant = self.tenants[rid]
            try:
                tenant.sessions[tenant.device_index].channel.open(request.result)
            except ChannelError:
                # Sealed for a session a crash or a close has since
                # replaced: typed, and the owner simply re-submits.
                self.undeliverable += 1

    def _submit(self, rid, tx):
        tenant = self.tenants[rid]
        bundle = TransactionBundle(
            transactions=(self.transactions[tx % len(self.transactions)],),
            block_number=self.service.synced_height,
        )
        self.submitted += 1
        self.tier.submit(
            rid,
            FailoverBundle(tenant.sessions, encode_bundle(bundle)),
            on_done=functools.partial(self._deliver, rid),
        )

    # -- rules ----------------------------------------------------------

    @precondition(lambda self: self._absent_rids())
    @rule(pick=st.integers(0, TENANTS - 1), then=THEN)
    def open(self, pick, then):
        absent = self._absent_rids()
        rid = absent[pick % len(absent)]
        self.lineage[rid] += 1
        session = self.tier.open_session(rid)
        assert session.state == SessionState.HANDSHAKING
        self._advance(then)

    @precondition(lambda self: self._open_rids(*HELD))
    @rule(pick=st.integers(0, TENANTS - 1), tx=st.integers(0, 3), then=THEN)
    def submit(self, pick, tx, then):
        held = self._open_rids(*HELD)
        self._submit(held[pick % len(held)], tx)
        self._advance(then)

    @precondition(lambda self: self._open_rids(SessionState.SUSPENDED))
    @rule(pick=st.integers(0, TENANTS - 1), tx=st.integers(0, 3), then=THEN)
    def resume(self, pick, tx, then):
        """Traffic for a SUSPENDED session redeems its ticket — or, when
        the device restarted since the mint, falls back typed to a full
        handshake.  Either way the ticket is dead afterwards."""
        suspended = self._open_rids(SessionState.SUSPENDED)
        rid = suspended[pick % len(suspended)]
        session = self.tier.sessions[rid]
        ticket = session.parked.ticket
        self._submit(rid, tx)
        assert session.live is not None and session.parked is None
        if session.state == SessionState.HANDSHAKING:
            self.lineage[rid] += 1
        else:
            assert session.state == SessionState.RESUMED
        self.dead_tickets.append((self.tenants[rid].device_index, ticket))
        if self.shards > 1:
            # The request waits on the session's handshake; once it
            # finishes, the request lands where the router places rid.
            router = self.tier.frontend
            self.woken[rid] = self.shard_gateways[router.shard_for_session(rid)]
        self._advance(then)

    def _close(self, candidates, pick):
        rid = candidates[pick % len(candidates)]
        session = self.tier.sessions[rid]
        if session.live is not None:
            self.ended.add(session.live.session_id)
        self.dropped += len(session.backlog)
        self.closed_records.append(session)
        self.woken.pop(rid, None)  # its queued requests go with it
        self.tier.close_session(rid)
        self.tier.close_session(rid)  # idempotent
        self.marks.pop(rid, None)
        return session

    @precondition(lambda self: self._open_rids(SessionState.ACTIVE))
    @rule(pick=st.integers(0, TENANTS - 1))
    def close_active(self, pick):
        self._close(self._open_rids(SessionState.ACTIVE), pick)

    @precondition(lambda self: self._open_rids(SessionState.SUSPENDED))
    @rule(pick=st.integers(0, TENANTS - 1))
    def close_suspended(self, pick):
        """A tier-only edge: the device already holds nothing, and the
        ticket is the user's to discard."""
        held = _device_sessions(self.service)
        self._close(self._open_rids(SessionState.SUSPENDED), pick)
        assert _device_sessions(self.service) == held

    @precondition(lambda self: self._open_rids(
        SessionState.HANDSHAKING, SessionState.RESUMED))
    @rule(pick=st.integers(0, TENANTS - 1))
    def close_mid_handshake(self, pick):
        """Full handshake or redemption in flight; what queued on the
        session is dropped with it."""
        self._close(
            self._open_rids(SessionState.HANDSHAKING, SessionState.RESUMED),
            pick,
        )

    @precondition(lambda self: self._open_rids(SessionState.ACTIVE))
    @rule(pick=st.integers(0, TENANTS - 1), tx=st.integers(0, 3))
    def close_with_a_request_in_flight(self, pick, tx):
        """The request still reports back, through the record itself."""
        active = self._open_rids(SessionState.ACTIVE)
        rid = active[pick % len(active)]
        self._submit(rid, tx)
        self._close([rid], 0)

    @precondition(lambda self: self.tier.sessions)
    @rule(device=st.integers(0, DEVICES - 1))
    def crash_and_restart(self, device):
        hypervisor = self.service.devices[device].hypervisor
        self.crashed.update(hypervisor._sessions)
        hypervisor.crash("lifecycle-machine")
        self.supervisor.restart(device)
        assert self.service.devices[device].hypervisor.generation > (
            hypervisor.generation
        )

    @precondition(lambda self: self.tier.sessions and not self.reactor.pending)
    @rule(pick=st.integers(0, len(SHARD_COUNTS) - 2))
    def ring_change(self, pick):
        """``rebind_frontend`` onto a different shard count.  Its
        contract is that callers drain first, so the rule waits for an
        idle reactor (every open session is then SUSPENDED)."""
        others = [count for count in SHARD_COUNTS if count != self.shards]
        self.shards = others[pick]
        self.tier.rebind_frontend(self._frontend(self.shards))

    @precondition(lambda self: self.tier.sessions)
    @rule()
    def checkpoint(self):
        self.manager.checkpoint()

    @rule(then=st.sampled_from([60_000.0, 450_000.0, None]))
    def wait(self, then):
        self._advance(then)

    def _advance(self, then):
        if then is None:
            self._drain()
        elif then:
            self.reactor.run_until(self.reactor.now_us + then)

    def _drain(self):
        """Everything in flight lands; idle sessions are evicted into
        real tickets.  Idle is where the counts must close."""
        self.tier.run()
        assert self.reactor.pending == 0
        for gateway in self.gateways:
            assert gateway.in_flight == 0 and gateway.queue_depth == 0
        assert len(self.outcomes) == self.submitted - self.dropped
        assert not self.woken  # every woken session's request landed
        assert self.tier.live_sessions == len(self.tier.sessions)
        for session in self.tier.sessions.values():
            assert session.state == SessionState.SUSPENDED
            assert not session.in_flight and not session.backlog

    @precondition(lambda self: self.dead_tickets)
    @rule(pick=st.integers(0, 63))
    def replay_a_dead_ticket(self, pick):
        """No ticket is honoured twice — and none across an epoch."""
        device, ticket = self.dead_tickets[pick % len(self.dead_tickets)]
        hypervisor = self.service.devices[device].hypervisor
        before = hypervisor.session_count
        with pytest.raises(TicketError):
            hypervisor.resume_session(ticket, b"\x5a" * 32)
        assert hypervisor.session_count == before

    # -- invariants -----------------------------------------------------

    @invariant()
    def lifecycle_holds(self):
        tier = self.tier
        open_sessions = {rid: tier.sessions[rid] for rid in self._open_rids()}

        # Suspends happen inside reactor events; the ticket names the
        # device session id it ended.
        for session in open_sessions.values():
            if session.parked is not None:
                self.ended.add(session.parked.session_id)

        # A session that ended by close or suspend is nowhere: not on a
        # device, not in the record set, not in a state replayed from
        # the sealed checkpoint + journal.  What the device holds is
        # exactly what the tier holds open on it — O(live).
        held = _device_sessions(self.service)
        records = _records(self.manager)
        _, replayed, _ = RecoveryManager.recover(
            self.manager.device, self.store
        )
        live = {
            session.live.session_id
            for session in open_sessions.values()
            if session.live is not None
        }
        assert not self.ended & held
        assert not self.ended & records
        assert {bytes.fromhex(key) for key in replayed.sessions} == records
        assert held == live
        # Records a re-join superseded stay (the follow-up ROADMAP
        # records); nothing else may outlive its session.
        assert live <= records and records - live <= self.crashed

        # Channel nonce watermarks never regress along one key lineage,
        # on either endpoint.
        for rid, session in open_sessions.items():
            if session.live is not None:
                mark = session.live.channel.nonce_watermark
                device = self.service.devices[self.tenants[rid].device_index]
                sent, received = device.hypervisor._sessions[
                    session.live.session_id
                ].channel.nonce_watermark
                assert received <= mark[0] and sent >= mark[1]
            else:
                mark = (session.parked.send_watermark,
                        session.parked.recv_watermark)
            previous = self.marks.get(rid)
            if previous is not None and previous[0] == self.lineage[rid]:
                assert mark[0] >= previous[1][0] and mark[1] >= previous[1][1]
            self.marks[rid] = (self.lineage[rid], mark)

        # The reactor's count of pending events never goes negative, and
        # every armed idle-eviction timer belongs to a live session.
        assert self.reactor.pending >= 0
        assert all(gateway.in_flight >= 0 for gateway in self.gateways)
        for _, _, _, handle in self.reactor._heap:
            callback = handle.callback
            if getattr(callback, "__func__", None) is (
                AsyncServingTier._maybe_suspend
            ):
                (session,) = handle.args
                assert open_sessions.get(session.routing_id) is session
                assert session.suspend_timer is handle
        for session in open_sessions.values():
            if session.suspend_timer is not None:
                assert session.state == SessionState.ACTIVE
        assert all(
            session.suspend_timer is None for session in self.closed_records
        )

        # The tier's count is its records; whatever failed, failed typed.
        assert tier.live_sessions == len(open_sessions)
        for request in self.outcomes:
            if request.status == RequestStatus.FAILED:
                assert not hasattr(builtins, request.failure.cause_type)


SessionLifecycle.TestCase.settings = MACHINE_SETTINGS
test_session_lifecycle = SessionLifecycle.TestCase


# ----------------------------------------------------------------------
# O(live), pinned by counts (not timers)
# ----------------------------------------------------------------------

def _sealed_checkpoint_bytes(manager):
    epoch = manager.checkpoint()
    return len(manager.store.get(f"checkpoint/{epoch:012d}"))


def test_checkpoint_is_as_long_after_eight_cycles_as_before_the_first():
    service, _, manager = _recovery_stack(device_count=1)
    hypervisor = service.devices[0].hypervisor
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x07" * 32
    )
    before = _sealed_checkpoint_bytes(manager)
    for _ in range(8):
        session = client.connect(service)
        session = client.resume(client.suspend(session))
        client.close(session)
    assert hypervisor.session_count == 0
    assert _records(manager) == set()
    # No ORAM access in between, so the only thing that could have
    # grown the checkpoint is a record that outlived its session.
    assert _sealed_checkpoint_bytes(manager) == before


def test_close_all_then_reopening_the_same_ids_holds_only_what_is_open():
    service, _, manager = _recovery_stack()
    tenants = _tenants(service)
    tier = AsyncServingTier(
        Gateway(
            ServiceExecutor(service),
            reactor=VirtualReactor(start_us=service.clock.now_us),
        ),
        ServiceHandshakeEngine(service, tenants),
        AsyncServingConfig(suspend_after_us=None),
    )
    for _ in range(2):
        for rid in tenants:
            tier.open_session(rid)
        tier.run()
        assert (
            len(_device_sessions(service)) == len(_records(manager))
            == tier.live_sessions == len(tier.sessions) == TENANTS
        )
        tier.close_all()
        assert (
            len(_device_sessions(service)) == len(_records(manager))
            == tier.live_sessions == len(tier.sessions) == 0
        )
