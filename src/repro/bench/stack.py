"""The serving stack every bench drives, and the four-hash identity.

Each helper does one step and the bench composes them in the order its
scenario needs (the order is observable: connecting a tenant advances
the service clock).  Anything bench-specific arrives as a callable —
``connect`` for the chaos harness's attestation retry, ``wrap`` for the
payload shape — so nothing here knows which bench is calling.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.device import DeviceConfig
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.evm.executor import execute_transaction
from repro.evm.tracer import CountingTracer, MultiTracer, StructTracer
from repro.faults.policy import RetryPolicy
from repro.hypervisor.bundle_codec import TransactionBundle, encode_bundle
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.serving.gateway import ServiceExecutor
from repro.serving.loadgen import LoadReport, LoadSession
from repro.state.journal import JournaledState
from repro.telemetry.exporters import render_chrome_trace
from repro.telemetry.tracer import install_tracer, uninstall_tracer
from repro.telemetry.unified import from_struct_logs
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

HEVMS_PER_DEVICE = 2  # every bench fleet: N devices of two HEVMs each


def build_evalset(blocks: int = 1, txs_per_block: int = 4):
    """A Table I evaluation set; by default the small world the
    real-pipeline identity scenarios serve."""
    return build_evaluation_set(
        EvaluationSetConfig(blocks=blocks, txs_per_block=txs_per_block)
    )


def build_service(
    node,
    features: SecurityFeatures | None = None,
    *,
    device_count: int = 2,
    device_config: DeviceConfig | None = None,
) -> HarDTAPEService:
    """A fees-off fleet over ``node``; full security unless told otherwise."""
    return HarDTAPEService(
        node,
        features or SecurityFeatures.from_level("full"),
        device_count=device_count,
        device_config=device_config or DeviceConfig(hevm_count=HEVMS_PER_DEVICE),
        charge_fees=False,
    )


def resilient_executor(service, metrics, *, max_attempts: int, supervisor=None):
    """The recovering executor the fault benches front the service with.

    Breakers must heal within a run (virtual runs last ~hundreds of ms):
    trip after 5 straight failures, hold for 50 virtual ms.
    """
    return ServiceExecutor(
        service,
        RetryPolicy(max_attempts=max_attempts, backoff_us=200.0),
        metrics=metrics,
        breaker_reset_us=50_000.0,
        supervisor=supervisor,
    )


@dataclass
class Tenant:
    """One attested user: its client and its session per device index."""

    index: int
    client: PreExecutionClient
    home: int
    sessions: dict

    @property
    def home_session(self):
        return self.sessions[self.home]


def connect_tenants(
    service,
    count: int,
    *,
    every_device: bool = False,
    connect=PreExecutionClient.connect,
) -> list[Tenant]:
    """Attest ``count`` seeded tenants, homes spread round-robin.

    A tenant attests its home device only, or ``every_device`` when its
    bundles must be able to fail over or re-attach elsewhere, through
    ``connect(client, service, device)``.
    """
    tenants = []
    for tenant in range(count):
        client = PreExecutionClient(
            service.manufacturer.root_public_key,
            rng_seed=bytes([tenant + 1]) * 32,
        )
        home = tenant % len(service.devices)
        indices = range(len(service.devices)) if every_device else (home,)
        sessions = {
            index: connect(client, service, service.devices[index])
            for index in indices
        }
        tenants.append(Tenant(tenant, client, home, sessions))
    return tenants


def seal_at_dispatch(tenant: Tenant, encoded: bytes):
    """The plain serving payload: sealed when the gateway invokes it, so
    channel nonces follow dispatch order rather than submission order."""
    return lambda: tenant.home_session.channel.seal(encoded)


def load_sessions(
    service, tenants: list[Tenant], transactions, wrap=seal_at_dispatch
) -> list[LoadSession]:
    """One closed/open-loop session per tenant over ``transactions``.

    Request ``ordinal`` of tenant ``t`` pre-executes transaction
    ``(t + ordinal) mod len`` at the synced height current when the
    request is made; ``wrap(tenant, encoded_bundle)`` turns it into the
    gateway payload.
    """

    def session_for(tenant: Tenant) -> LoadSession:
        def make_payload(ordinal: int):
            tx = transactions[(tenant.index + ordinal) % len(transactions)]
            bundle = TransactionBundle(
                transactions=(tx,), block_number=service.synced_height
            )
            return wrap(tenant, encode_bundle(bundle))

        return LoadSession(
            session_id=tenant.home_session.session_id,
            make_payload=make_payload,
            device_index=tenant.home,
        )

    return [session_for(tenant) for tenant in tenants]


@contextmanager
def traced(clock, sampler=None):
    """Install a tracer on ``clock`` for the body; always uninstall it."""
    tracer = install_tracer(clock, sampler)
    try:
        yield tracer
    finally:
        uninstall_tracer(clock)


def node_ground_truth(service, tx):
    """Offline re-execution on the node's synced state, fees off.

    The trust anchor for audits and reconciliation: the user's own full
    node replaying the transaction the device was asked to pre-execute.
    Returns ``(result, unified step trace, event counts)``.
    """
    state = JournaledState(service.node.state_at(service.synced_height).copy())
    struct = StructTracer(capture_stack=False)
    counting = CountingTracer()
    result = execute_transaction(
        state,
        service.pending_chain_context(),
        tx,
        tracer=MultiTracer(struct, counting),
        charge_fees=False,
    )
    return result, from_struct_logs(struct.logs), counting.counts


# ----------------------------------------------------------------------
# The four-hash identity
# ----------------------------------------------------------------------

def trace_hash(tracer) -> str:
    return hashlib.sha256(render_chrome_trace(tracer).encode()).hexdigest()


def metrics_hash(metrics) -> str:
    return hashlib.sha256(
        json.dumps(metrics.snapshot(), sort_keys=True).encode()
    ).hexdigest()


def wire_hash(loads: list[LoadReport]) -> str:
    """SHA-256 over every completed request's wire bytes, in order."""
    digest = hashlib.sha256()
    for load in loads:
        for request in load.outcomes:
            if request.failure is not None or request.result is None:
                continue
            message = request.result
            if hasattr(message, "ciphertext"):
                digest.update(message.nonce)
                digest.update(message.ciphertext)
                if message.signature is not None:
                    digest.update(message.signature.to_bytes())
            else:
                digest.update(bytes(message))
    return digest.hexdigest()


def content_digest(content: dict[bytes, bytes]) -> str:
    """SHA-256 over logical ORAM content, length-prefixed, by key."""
    digest = hashlib.sha256()
    for key in sorted(content):
        digest.update(len(key).to_bytes(2, "big"))
        digest.update(key)
        digest.update(content[key])
    return digest.hexdigest()


def world_digest(service) -> str:
    """Digest of the service's logical world state (tree ∪ stash).

    Pre-execution never commits writes, so this is a pure function of
    the sync history: crashes, restarts and observers must not move it.
    Reads the raw server, not any fault wrapper around it.
    """
    client = service.shared_oram_client
    if client is None:
        return content_digest({})
    return content_digest(client.logical_content(service.oram_server))


HASH_FIELDS = ("trace_hash", "metrics_hash", "wire_hash", "digest")


def identity_hashes(tracer, metrics, loads: list[LoadReport], service) -> dict:
    """Everything a seeded run may not change: the frontend's Chrome
    trace, its metrics snapshot, the wire bytes it returned, and the
    world state it left behind — keyed by :data:`HASH_FIELDS`."""
    return {
        "trace_hash": trace_hash(tracer),
        "metrics_hash": metrics_hash(metrics),
        "wire_hash": wire_hash(loads),
        "digest": world_digest(service),
    }


def compare_identity(
    baseline: dict, candidate: dict, failure: str
) -> tuple[dict[str, bool], list[str]]:
    """Per-hash equality of two runs' hash dicts, plus one gate-failure
    line per divergence.  Hashes are named without their ``_hash``
    suffix, in the result and in ``failure.format(name=...)``."""
    identity = {
        name.removesuffix("_hash"): baseline[name] == candidate[name]
        for name in baseline
    }
    failures = [
        failure.format(name=name) for name, equal in identity.items() if not equal
    ]
    return identity, failures
