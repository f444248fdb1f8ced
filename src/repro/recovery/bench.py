"""The crash-recovery chaos benchmark (``recovery-bench``).

Three scenarios, every gate seeded and deterministic:

1. **Identity** — the same zero-crash serving run twice, checkpointing
   disarmed vs armed.  Armed checkpointing is pure host-process work, so
   the two runs must be byte-identical: same Chrome trace JSON, same
   metrics snapshot, same wire bytes out of the gateway, same final
   world-state digest.
2. **Crash chaos** — the run again with a seeded
   ``hypervisor-crash`` rule killing the Hypervisor at virtual-time
   decision points mid-bundle (admission and sealing).  Every restart
   recovers from the durable store, re-attests tenants, and the gates
   demand: at least ``min_crashes`` crashes fired, every affected
   request either completed after recovery or terminated as a *typed*
   failure, and the converged world-state digest byte-identical to the
   zero-crash baseline.
3. **Rollback attack** — a scripted malicious SP: snapshot the ORAM
   tree, let the deployment move on, crash it, serve the stale tree to
   the restarted Hypervisor.  Gates: the very first post-restart access
   raises :class:`~repro.oram.client.RollbackDetectedError` (never
   silently absorbed), the re-sync policy heals the deployment, and a
   rollback of the durable store itself is refused at boot
   (:class:`~repro.recovery.manager.RecoveryIntegrityError`).

The world-state digest hashes the *logical* ORAM content — every real
block in the tree (decrypted under the pinned per-node versions) with
the stash overlaid.  Pre-execution never commits writes, so the digest
is a pure function of the sync history; crashes and restarts must not
change it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import GateReport, identity_verdict
from repro.bench.stack import (
    HASH_FIELDS,
    build_evalset,
    build_service,
    compare_identity,
    connect_tenants,
    identity_hashes,
    load_sessions,
    resilient_executor,
    traced,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.faults.policy import FailoverBundle
from repro.oram.client import RollbackDetectedError
from repro.recovery.manager import RecoveryManager
from repro.recovery.state import RecoveryIntegrityError
from repro.recovery.store import DurableStore
from repro.recovery.supervisor import HypervisorSupervisor
from repro.serving.gateway import Gateway, GatewayConfig
from repro.serving.loadgen import LoadReport, run_closed_loop
from repro.serving.metrics import MetricsRegistry
from repro.telemetry.tracer import TraceSampler

# The error types a Hypervisor crash manifests as at the gateway: the
# crash itself, and the stale-session rejections that follow a restart.
CRASH_ERROR_TYPES = frozenset({"HypervisorCrashError", "UnknownSessionError"})

CHECKPOINT_INTERVAL = 4


@dataclass
class RecoveryBenchConfig:
    """One recovery-bench invocation: load and crash schedule."""

    seed: int = 1
    tenants: int = 3
    requests_per_tenant: int = 4   # per phase; two phases around a sync
    crash_rate: float = 0.2        # per crash decision point (2 / bundle)
    min_crashes: int = 3
    max_crashes: int = 4
    sync_txs: int = 6              # mid-run block size
    blocks: int = 2
    txs_per_block: int = 6

    @classmethod
    def smoke(cls, seed: int = 1) -> "RecoveryBenchConfig":
        """CI-sized: fewer tenants/requests, crash schedule kept hot."""
        return cls(
            seed=seed,
            tenants=2,
            requests_per_tenant=3,
            crash_rate=0.2,
            min_crashes=3,
            max_crashes=3,
            blocks=1,
            txs_per_block=4,
            sync_txs=4,
        )


@dataclass
class _RunArtifacts:
    """Everything one deployment run leaves behind for the gates."""

    trace_hash: str
    metrics_hash: str
    wire_hash: str
    digest: str
    loads: list[LoadReport]
    crashes_fired: int
    restarts: int
    affected: list
    checkpoints_written: int
    journal_records: int
    store_bytes: int

    def hashes(self) -> dict:
        return {name: getattr(self, name) for name in HASH_FIELDS}


def _affected_requests(loads: list[LoadReport]) -> list:
    """Requests a crash (or post-restart stale session) touched."""
    affected = []
    for load in loads:
        for request in load.outcomes:
            touched = False
            if request.recovery is not None and CRASH_ERROR_TYPES & set(
                request.recovery.recovered_errors
            ):
                touched = True
            if (
                request.failure is not None
                and request.failure.cause_type in CRASH_ERROR_TYPES
            ):
                touched = True
            if touched:
                affected.append(request)
    return affected


def _run_deployment(
    config: RecoveryBenchConfig, *, checkpointing: bool, crash_rate: float
) -> _RunArtifacts:
    """One full serving run: load, mid-run block sync, load again."""
    evalset = build_evalset(config.blocks, config.txs_per_block)
    service = build_service(evalset.node)
    metrics = MetricsRegistry()
    plan = FaultPlan(
        config.seed,
        [
            FaultRule(
                FaultKind.HYPERVISOR_CRASH,
                crash_rate,
                max_fires=config.max_crashes,
            )
        ],
    )
    injector = FaultInjector(plan, metrics)
    injector.arm_service(service)
    with traced(service.clock, TraceSampler(1.0, config.seed)) as tracer:
        store = DurableStore()
        manager: RecoveryManager | None = None
        supervisor: HypervisorSupervisor | None = None
        if checkpointing:
            manager = RecoveryManager(
                service.devices[0],
                store,
                checkpoint_interval=CHECKPOINT_INTERVAL,
            )
            manager.attach(service)
            supervisor = HypervisorSupervisor(
                service, manager, store, injector=injector, metrics=metrics
            )
        executor = resilient_executor(
            service, metrics, max_attempts=5, supervisor=supervisor
        )
        gateway = Gateway(executor, GatewayConfig(), metrics=metrics, tracer=tracer)

        # Each tenant attests every device; a restart re-join replaces
        # the entry in ``tenant.sessions``, which its payloads read live.
        tenants = connect_tenants(service, config.tenants, every_device=True)
        if supervisor is not None:
            for tenant in tenants:

                def rejoin(device_index, device, tenant=tenant):
                    tenant.sessions[device_index] = tenant.client.connect(
                        service, device
                    )

                supervisor.rejoin_callbacks.append(rejoin)
        transactions = evalset.transactions
        sessions = load_sessions(
            service,
            tenants,
            transactions,
            lambda tenant, encoded: FailoverBundle(tenant.sessions, encoded),
        )

        loads: list[LoadReport] = []
        for phase in range(2):
            loads.append(
                run_closed_loop(
                    gateway,
                    sessions,
                    requests_per_session=config.requests_per_tenant,
                )
            )
            if phase == 0:
                # A fresh block lands on-chain mid-run; sync it so the
                # final digest reflects state a crash could corrupt.
                evalset.node.add_block(list(transactions[: config.sync_txs]))
                service.sync_new_blocks()
        hashes = identity_hashes(tracer, metrics, loads, service)

    if supervisor is not None and supervisor.manager is not None:
        manager = supervisor.manager  # latest generation, cumulative counters
    return _RunArtifacts(
        **hashes,
        loads=loads,
        crashes_fired=plan.fires(FaultKind.HYPERVISOR_CRASH),
        restarts=supervisor.restarts if supervisor is not None else 0,
        affected=_affected_requests(loads),
        checkpoints_written=manager.checkpoints_written if manager else 0,
        journal_records=manager.records_written if manager else 0,
        store_bytes=store.total_bytes(),
    )


def _run_rollback_attack(config: RecoveryBenchConfig) -> dict:
    """Scripted malicious SP: stale tree after restart, then store rollback."""
    evalset = build_evalset(config.blocks, config.txs_per_block)
    service = build_service(evalset.node)
    store = DurableStore()
    manager = RecoveryManager(
        service.devices[0], store, checkpoint_interval=CHECKPOINT_INTERVAL
    )
    manager.attach(service)
    supervisor = HypervisorSupervisor(service, manager, store)
    client = service.shared_oram_client  # attach() checked there is one

    probe_key = b"recovery-bench/probe"
    client.access(probe_key, b"value-before-snapshot")
    manager.checkpoint()
    stale_tree = service.oram_server.snapshot_tree()
    # The deployment moves on: versions advance past the snapshot.
    client.access(probe_key, b"value-after-snapshot")
    for _ in range(2):
        client.access(probe_key)

    device = service.devices[0]
    device.hypervisor.crash("sp-rollback-attack")
    service.oram_server.restore_tree(stale_tree)
    supervisor.restart(0)

    detected_first_access = False
    served_version = expected_version = None
    client = service.shared_oram_client
    try:
        client.access(probe_key)
    except RollbackDetectedError as error:
        detected_first_access = True
        served_version = error.served_version
        expected_version = error.expected_version

    healed = False
    if detected_first_access:
        supervisor.resync(0)
        client = service.shared_oram_client
        # The probe block never came from chain state, so re-sync drops
        # it — the stale SP copy must NOT resurface.
        healed = client.access(probe_key) is None
        client.access(probe_key, b"post-resync")
        value = client.access(probe_key)
        healed = healed and value is not None and value.startswith(b"post-resync")

    # Second attack: roll back checkpoint + journal *together*.  The
    # hardware monotonic counter must refuse the boot outright.
    store_snapshot = store.snapshot()
    client.access(probe_key, b"advance-the-counter")
    device.hypervisor.crash("sp-store-rollback")
    store.restore(store_snapshot)
    store_rollback_refused = False
    try:
        RecoveryManager.recover(device, store)
    except RecoveryIntegrityError:
        store_rollback_refused = True

    return {
        "detected_first_access": detected_first_access,
        "served_version": served_version,
        "expected_version": expected_version,
        "rollbacks_counted": (
            service.shared_oram_client.stats.rollbacks_detected if detected_first_access else 0
        ),
        "healed": healed,
        "resyncs": supervisor.resyncs,
        "store_rollback_refused": store_rollback_refused,
    }


@dataclass
class RecoveryBenchReport(GateReport):
    """All three scenarios' artifacts plus the pass/fail gates."""

    identity: dict[str, bool]
    baseline: dict
    crash: dict
    rollback: dict

    bench = "recovery"

    def section_lines(self) -> list[str]:
        return [
            "identity (checkpointing off vs on, zero crashes): "
            + identity_verdict(self.identity),
            f"crash run: {self.crash['crashes_fired']} crash(es), "
            f"{self.crash['restarts']} restart(s), "
            f"{self.crash['completed']} ok / {self.crash['failed']} failed / "
            f"{self.crash['rejected']} shed",
            f"  affected by crashes: {self.crash['affected_total']} "
            f"({self.crash['affected_completed']} completed after recovery, "
            f"{self.crash['affected_failed_typed']} typed FAILED)",
            f"  durable store: {self.crash['checkpoints_written']} checkpoint(s), "
            f"{self.crash['journal_records']} journal record(s), "
            f"{self.crash['store_bytes']} bytes",
            "  world-state digest "
            + (
                "matches zero-crash baseline"
                if self.crash["digest"] == self.baseline["digest"]
                else "MISMATCH vs baseline"
            ),
            "rollback attack: "
            + (
                f"detected at first post-restart access "
                f"(version {self.rollback['served_version']} served, "
                f"{self.rollback['expected_version']} pinned), "
                + ("re-sync healed" if self.rollback["healed"] else "re-sync FAILED")
                if self.rollback["detected_first_access"]
                else "NOT DETECTED"
            ),
            "store rollback: "
            + (
                "refused at boot"
                if self.rollback["store_rollback_refused"]
                else "NOT refused"
            ),
        ]


def _artifacts_obj(run: _RunArtifacts) -> dict:
    affected_completed = sum(1 for r in run.affected if r.failure is None)
    affected_failed_typed = sum(
        1
        for r in run.affected
        if r.failure is not None and r.failure.error_type and r.failure.cause_type
    )
    return {
        **run.hashes(),
        "completed": sum(load.completed for load in run.loads),
        "failed": sum(load.failed for load in run.loads),
        "rejected": sum(load.rejected for load in run.loads),
        "crashes_fired": run.crashes_fired,
        "restarts": run.restarts,
        "affected_total": len(run.affected),
        "affected_completed": affected_completed,
        "affected_failed_typed": affected_failed_typed,
        "checkpoints_written": run.checkpoints_written,
        "journal_records": run.journal_records,
        "store_bytes": run.store_bytes,
    }


def run_recovery_bench(config: RecoveryBenchConfig) -> RecoveryBenchReport:
    """All three scenarios, then the gates."""
    plain = _run_deployment(config, checkpointing=False, crash_rate=0.0)
    baseline = _run_deployment(config, checkpointing=True, crash_rate=0.0)
    crash = _run_deployment(
        config, checkpointing=True, crash_rate=config.crash_rate
    )
    rollback = _run_rollback_attack(config)

    identity, failures = compare_identity(
        plain.hashes(),
        baseline.hashes(),
        "identity: armed checkpointing changed the {name} bytes "
        "of a zero-crash run",
    )
    if crash.crashes_fired < config.min_crashes:
        failures.append(
            f"crash run fired {crash.crashes_fired} crash(es), "
            f"need >= {config.min_crashes} (raise crash_rate or load)"
        )
    crash_obj = _artifacts_obj(crash)
    unaccounted = (
        crash_obj["affected_total"]
        - crash_obj["affected_completed"]
        - crash_obj["affected_failed_typed"]
    )
    if unaccounted:
        failures.append(
            f"{unaccounted} crash-affected request(s) neither completed nor "
            f"terminated as a typed failure"
        )
    if crash.digest != baseline.digest:
        failures.append(
            "crash run's converged world-state digest differs from the "
            "zero-crash baseline"
        )
    if not rollback["detected_first_access"]:
        failures.append(
            "SP tree rollback was not detected at the first post-restart access"
        )
    elif not rollback["healed"]:
        failures.append("re-sync did not heal the deployment after rollback")
    if not rollback["store_rollback_refused"]:
        failures.append(
            "durable-store rollback was not refused by the monotonic counter"
        )

    return RecoveryBenchReport(
        seed=config.seed,
        identity=identity,
        baseline=_artifacts_obj(baseline),
        crash=crash_obj,
        rollback=rollback,
        gate_failures=failures,
    )


__all__ = [
    "CRASH_ERROR_TYPES",
    "RecoveryBenchConfig",
    "RecoveryBenchReport",
    "run_recovery_bench",
]
