"""The observability benchmark (``obs-bench``): three seeded gates.

1. **Identity** — the real-pipeline serving run through the async tier
   from the c10k identity scenario, executed twice: observability stack *off*
   (no async tracer, no flight recorder, no SLO monitor) and *on* (all
   three armed).  The frontend's Chrome trace, metrics snapshot,
   Prometheus text, wire bytes, and world digest must be byte-identical
   — the async plane's own tracer is keyed off the *reactor*,
   the flight recorder is pure bookkeeping, and the monitor only reads
   snapshots, so observing the system must not change it.
2. **Reconciliation** — a mixed workload exercises all three trace
   representations and reconciles them *exactly* through
   :mod:`repro.telemetry.unified`:

   * sync leg: transactions run on a full-security HEVM core
     (path-ORAM world state) with struct tracing on; node ground truth
     re-executes the same transactions with a StructTracer +
     CountingTracer.  Steps, counts, and Merkle commitments must agree
     three ways (node steps == HEVM steps == live ``hevm.tx`` span
     counts).
   * sharded leg: the same, with the HEVM reading through a
     :class:`~repro.sharding.ShardedObliviousStateBackend` fleet.
   * async leg: the identity gate's observability-on run doubles as a
     live async workload; the aggregate instruction/group counts of
     every ``hevm.tx`` span it emitted must equal the node's offline
     totals for the exact transaction multiset the open-loop driver
     submitted.
3. **Alerts** — a model-tier C10K run with an epoch bump mid-flight
   (every outstanding resumption ticket goes stale).  The armed flight
   recorder must seal exactly one ``StaleTicketError`` dump per
   outstanding ticket, the SLO monitor's ``stale-ticket-rate`` burn
   alert must fire, and a second identically seeded run must reproduce
   dump digests and the alert train byte-for-byte.  A zero-fault twin
   must emit no dumps and no alerts.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass

from repro.async_serving.tier import ModelHandshakeEngine
from repro.bench.report import GateReport, identity_verdict
from repro.bench.stack import (
    build_evalset,
    build_service,
    compare_identity,
    connect_tenants,
    identity_hashes,
    load_sessions,
    node_ground_truth,
    traced,
)
from repro.bench.tiers import run_model_tier, tier_open_loop
from repro.serving.gateway import Gateway, GatewayConfig, ServiceExecutor
from repro.serving.metrics import MetricsRegistry
from repro.sharding.backend import (
    ShardedObliviousStateBackend,
    ShardedOramConfig,
    ShardedOramFleet,
)
from repro.telemetry.exporters import render_prometheus
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.slo import SloMonitor, default_slo_rules
from repro.telemetry.tracer import TraceSampler
from repro.telemetry.unified import (
    TraceReconciliationError,
    counts_from_events,
    counts_from_span,
    counts_from_trace,
    from_struct_logs,
    reconcile_counts,
    reconcile_step_traces,
)

# The identity / async-leg scenario's real-pipeline world and load.
IDENTITY_RATE_RPS = 40.0
FLIGHT_CAPACITY = 32
# The sharded reconciliation leg's fleet.
SHARD_COUNT = 2
SHARD_ORAM_HEIGHT = 9
# The alert scenario's model-mode fleet and SLO cadence.
SHARDS = 4
CORES_PER_SHARD = 32
OPEN_WINDOW_US = 50_000.0
OBSERVE_EVERY_US = 250_000.0
SLO_WINDOW_US = 500_000.0


@dataclass
class ObsBenchConfig:
    """One obs-bench invocation."""

    seed: int = 1
    # -- identity / async-leg scenario (real pipeline) ------------------
    identity_tenants: int = 3
    identity_requests: int = 9
    # -- reconciliation legs -------------------------------------------
    reconcile_txs: int = 3
    # -- alert scenario (model tier, epoch bump) -----------------------
    fault_sessions: int = 48

    @classmethod
    def smoke(cls, seed: int = 1) -> "ObsBenchConfig":
        """CI-sized: fewer tenants/requests, smaller fault fleet."""
        return cls(
            seed=seed,
            identity_tenants=2,
            identity_requests=6,
            reconcile_txs=2,
            fault_sessions=24,
        )


# ----------------------------------------------------------------------
# Gate 1: identity (observability on == observability off, frontend bytes)
# ----------------------------------------------------------------------

@dataclass
class _StackArtifacts:
    hashes: dict[str, str]   # the four identity hashes + prometheus_hash
    completed: int
    failed: int
    async_span_count: int
    async_plane_lines: int
    dump_count: int
    alert_count: int
    tx_span_counts: list[dict]


def _run_serving_stack(config: ObsBenchConfig,
                       observability: bool) -> _StackArtifacts:
    """One real-pipeline run through the tier, obs stack off or on."""
    evalset = build_evalset()
    service = build_service(evalset.node)
    metrics = MetricsRegistry()
    with traced(service.clock, TraceSampler(1.0, config.seed)) as tracer:
        flight = FlightRecorder(FLIGHT_CAPACITY) if observability else None
        gateway = Gateway(
            ServiceExecutor(service), GatewayConfig(),
            metrics=metrics, tracer=tracer, flight=flight,
        )
        monitor = (
            SloMonitor(default_slo_rules(window_us=SLO_WINDOW_US))
            if observability else None
        )
        # The async plane's spans go to a tracer keyed off the *reactor*,
        # not the service clock the frontend tracer is keyed off, so they
        # cannot land in (or renumber) the trace the identity gate hashes.
        with (
            traced(gateway.reactor) if observability else nullcontext()
        ) as tier_tracer:
            tier, load = tier_open_loop(
                gateway,
                load_sessions(
                    service,
                    connect_tenants(service, config.identity_tenants),
                    evalset.transactions,
                ),
                flight=flight,
                rate_rps=IDENTITY_RATE_RPS,
                total_requests=config.identity_requests,
                seed=config.seed,
            )
        alert_count = 0
        if monitor is not None:
            snapshot = dict(tier.metrics.snapshot())
            snapshot.update(gateway.metrics.snapshot())
            monitor.observe(snapshot, gateway.now_us)
            alert_count = len(monitor.alerts)
        # The frontend exposition: rendered WITHOUT planes, exactly as
        # every pre-observability caller renders it.
        prometheus = render_prometheus(metrics)
        async_lines = 0
        if observability:
            with_planes = render_prometheus(
                metrics, planes={"async": tier.metrics}
            )
            async_lines = with_planes.count('plane="async"')
        hashes = identity_hashes(tracer, metrics, [load], service)
        hashes["prometheus_hash"] = hashlib.sha256(
            prometheus.encode()
        ).hexdigest()
    return _StackArtifacts(
        hashes=hashes,
        completed=load.completed,
        failed=load.failed,
        async_span_count=0 if tier_tracer is None else len(tier_tracer.spans),
        async_plane_lines=async_lines,
        dump_count=0 if not observability else len(flight.dumps),
        alert_count=alert_count,
        tx_span_counts=[
            counts_from_span(span)
            for span in tracer.spans
            if span.name == "hevm.tx" and "instructions" in span.attributes
        ],
    )


# ----------------------------------------------------------------------
# Gate 2: three-way trace reconciliation
# ----------------------------------------------------------------------


def _reconcile_leg(config: ObsBenchConfig, leg: str) -> dict:
    """One execution leg: node vs HEVM steps vs live span counts."""
    evalset = build_evalset()
    service = build_service(evalset.node, device_count=1)
    device = service.devices[0]
    if leg == "sharded":
        fleet = ShardedOramFleet(
            ShardedOramConfig(
                shard_count=SHARD_COUNT,
                oram_height=SHARD_ORAM_HEIGHT,
            ),
            hashlib.sha256(b"obs-bench-shard-%d" % config.seed).digest(),
        )
        oram_backend = ShardedObliviousStateBackend(
            fleet, clock=lambda: service.clock.now_us
        )
        oram_backend.sync_world(service._synced_state.accounts)
    else:
        oram_backend = device.oram_backend
    txs = evalset.transactions[: config.reconcile_txs]
    steps = 0
    commitments: list[str] = []
    with traced(service.clock) as tracer:
        core = device.cores[0]
        for tx in txs:
            before = len(tracer.spans)
            results, _, _, struct_traces = core.run_bundle(
                [tx],
                service.pending_chain_context(),
                service._synced_state,
                oram_backend,
                storage_via_oram=True,
                code_via_oram=True,
                struct_trace=True,
                charge_fees=False,
            )
            core.reset()
            tx_spans = [
                span for span in tracer.spans[before:]
                if span.name == "hevm.tx"
            ]
            if len(results) != 1 or len(tx_spans) != 1:
                raise TraceReconciliationError(
                    f"{leg}: one transaction ran as {len(results)} result(s) "
                    f"under {len(tx_spans)} hevm.tx span(s)"
                )
            _, node_trace, node_counts = node_ground_truth(service, tx)
            hevm_trace = from_struct_logs(struct_traces[0])
            root = reconcile_step_traces(
                node_trace, hevm_trace,
                expected_source=f"node/{leg}", actual_source=f"hevm/{leg}",
            )
            reconcile_counts(
                counts_from_trace(node_trace),
                counts_from_events(node_counts),
                expected_source=f"node-steps/{leg}",
                actual_source=f"node-events/{leg}",
            )
            reconcile_counts(
                counts_from_trace(hevm_trace),
                counts_from_span(tx_spans[0]),
                expected_source=f"hevm-steps/{leg}",
                actual_source=f"hevm-span/{leg}",
            )
            steps += node_trace.instructions
            commitments.append(root)
    return {
        "leg": leg,
        "transactions": len(txs),
        "steps": steps,
        "commitments": commitments,
    }


def _reconcile_async_leg(config: ObsBenchConfig,
                         observed: _StackArtifacts) -> dict:
    """Aggregate reconciliation of the live async run's hevm.tx spans.

    The open-loop driver's submission schedule is deterministic
    (round-robin tenants, per-tenant ordinals), so the exact transaction
    multiset the run executed is recomputable offline; its node-side
    totals must equal the sum of every span's live counts.
    """
    evalset = build_evalset()
    service = build_service(evalset.node, device_count=1)
    transactions = evalset.transactions
    per_tx: dict[int, dict] = {}
    expected = {"instructions": 0, "by_group": {}}
    for index in range(config.identity_requests):
        tenant = index % config.identity_tenants
        ordinal = index // config.identity_tenants
        tx_index = (tenant + ordinal) % len(transactions)
        if tx_index not in per_tx:
            _, trace, _ = node_ground_truth(service, transactions[tx_index])
            per_tx[tx_index] = counts_from_trace(trace)
        counts = per_tx[tx_index]
        expected["instructions"] += counts["instructions"]
        for group, n in counts["by_group"].items():
            expected["by_group"][group] = (
                expected["by_group"].get(group, 0) + n
            )
    actual = {"instructions": 0, "by_group": {}}
    for counts in observed.tx_span_counts:
        actual["instructions"] += counts["instructions"]
        for group, n in counts["by_group"].items():
            actual["by_group"][group] = actual["by_group"].get(group, 0) + n
    reconcile_counts(
        expected, actual,
        expected_source="node/async-offline", actual_source="span/async-live",
    )
    return {
        "leg": "async",
        "transactions": config.identity_requests,
        "spans": len(observed.tx_span_counts),
        "instructions": actual["instructions"],
    }


# ----------------------------------------------------------------------
# Gate 3: induced-fault alerts + sealed dumps
# ----------------------------------------------------------------------

@dataclass
class _FaultRunResult:
    dump_digests: list[str]
    dump_causes: list[str]
    alerts: list[dict]
    stale_refused: int
    completed: int
    failed: int


def _run_fault_tier(config: ObsBenchConfig, *,
                    epoch_bump: bool) -> _FaultRunResult:
    """A model-tier run with the obs stack armed, bumping the epoch
    mid-flight (or not, for the zero-fault twin)."""
    flight = FlightRecorder(FLIGHT_CAPACITY)
    monitor = SloMonitor(default_slo_rules(window_us=SLO_WINDOW_US))
    tier, load = run_model_tier(
        seed=config.seed,
        session_count=config.fault_sessions,
        shards=SHARDS,
        cores_per_shard=CORES_PER_SHARD,
        open_window_us=OPEN_WINDOW_US,
        session_prefix=b"obs",
        flight=flight,
        before_first_burst=(
            ModelHandshakeEngine.advance_epoch if epoch_bump else None
        ),
        observer=lambda tier, now_us: monitor.observe(
            tier.metrics.snapshot(), now_us
        ),
        observe_every_us=OBSERVE_EVERY_US,
    )
    return _FaultRunResult(
        dump_digests=flight.dump_digests(),
        dump_causes=[dump.cause_type for dump in flight.dumps],
        alerts=monitor.alert_dicts(),
        stale_refused=int(
            tier.metrics.snapshot().get("tier.stale_tickets", 0)
        ),
        completed=load.completed,
        failed=load.failed,
    )


# ----------------------------------------------------------------------
# Report and gates
# ----------------------------------------------------------------------

@dataclass
class ObsBenchReport(GateReport):
    identity: dict[str, bool]
    observability: dict
    reconciliation: dict
    alerts: dict

    bench = "obs"

    def section_lines(self) -> list[str]:
        return [
            "identity (observability on vs off, frontend bytes): "
            + identity_verdict(self.identity),
            f"  async plane recorded {self.observability['async_spans']} "
            f"spans, {self.observability['async_plane_lines']} "
            f"plane=async series, frontend untouched",
            "reconciliation: "
            + ", ".join(
                f"{leg['leg']} {leg['steps']} steps"
                if "steps" in leg
                else f"{leg['leg']} {leg['instructions']} instructions "
                     f"across {leg['spans']} live spans"
                for leg in self.reconciliation["legs"]
            )
            + " — all exact",
            f"alerts: {self.alerts['stale_refused']} stale tickets sealed "
            f"{self.alerts['dumps']} flight dumps, "
            f"{self.alerts['alert_count']} burn-rate alerts "
            f"({', '.join(sorted(set(self.alerts['alert_rules']))) or 'none'})"
            + (", rerun byte-identical"
               if self.alerts["deterministic"] else ", RERUN DIVERGED"),
            f"  zero-fault twin: {self.alerts['quiet_dumps']} dumps, "
            f"{self.alerts['quiet_alerts']} alerts",
        ]


def run_obs_bench(config: ObsBenchConfig) -> ObsBenchReport:
    # 1. Identity.
    plain = _run_serving_stack(config, observability=False)
    observed = _run_serving_stack(config, observability=True)
    identity, failures = compare_identity(
        plain.hashes,
        observed.hashes,
        "identity: arming the observability stack changed the "
        "{name} bytes of a seeded run",
    )
    observability = {
        "async_spans": observed.async_span_count,
        "async_plane_lines": observed.async_plane_lines,
        "dumps": observed.dump_count,
        "alerts": observed.alert_count,
        "completed": observed.completed,
        "failed": observed.failed,
    }
    if observed.async_span_count == 0:
        failures.append(
            "identity: observability-on run recorded no async-plane spans "
            "(the gate would be vacuous)"
        )
    if observed.async_plane_lines == 0:
        failures.append(
            "identity: plane=async exposition rendered no series"
        )
    if observed.dump_count != 0:
        failures.append(
            f"identity: {observed.dump_count} flight dumps sealed on a "
            f"zero-failure run"
        )

    # 2. Reconciliation: sync + sharded legs, then the live async leg.
    legs = []
    for leg in ("sync", "sharded"):
        legs.append(_reconcile_leg(config, leg))
    legs.append(_reconcile_async_leg(config, observed))
    if legs[0]["commitments"] != legs[1]["commitments"]:
        failures.append(
            "reconciliation: sharded-leg commitments diverge from sync "
            "(same transactions, same schema — must be identical roots)"
        )
    reconciliation = {"legs": legs, "exact": True}

    # 3. Alerts: induced fault twice (determinism) + zero-fault twin.
    fault_a = _run_fault_tier(config, epoch_bump=True)
    fault_b = _run_fault_tier(config, epoch_bump=True)
    quiet = _run_fault_tier(config, epoch_bump=False)
    deterministic = (
        fault_a.dump_digests == fault_b.dump_digests
        and fault_a.alerts == fault_b.alerts
    )
    alert_rules = [alert["rule"] for alert in fault_a.alerts]
    alerts = {
        "sessions": config.fault_sessions,
        "stale_refused": fault_a.stale_refused,
        "dumps": len(fault_a.dump_digests),
        "dump_digest": hashlib.sha256(
            "".join(fault_a.dump_digests).encode()
        ).hexdigest(),
        "alert_count": len(fault_a.alerts),
        "alert_rules": alert_rules,
        "deterministic": deterministic,
        "quiet_dumps": len(quiet.dump_digests),
        "quiet_alerts": len(quiet.alerts),
        "completed": fault_a.completed,
        "failed": fault_a.failed,
    }
    if fault_a.stale_refused != config.fault_sessions:
        failures.append(
            f"alerts: {fault_a.stale_refused} stale refusals for "
            f"{config.fault_sessions} outstanding tickets"
        )
    if len(fault_a.dump_digests) != config.fault_sessions:
        failures.append(
            f"alerts: {len(fault_a.dump_digests)} sealed dumps, expected "
            f"one per stale ticket ({config.fault_sessions})"
        )
    if any(cause != "StaleTicketError" for cause in fault_a.dump_causes):
        failures.append(
            "alerts: a sealed dump carries a cause other than "
            "StaleTicketError"
        )
    if "stale-ticket-rate" not in alert_rules:
        failures.append(
            "alerts: the stale-ticket-rate burn alert did not fire"
        )
    if not deterministic:
        failures.append(
            "alerts: seeded rerun produced different dumps or alerts"
        )
    if quiet.dump_digests or quiet.alerts:
        failures.append(
            f"alerts: zero-fault twin emitted {len(quiet.dump_digests)} "
            f"dumps / {len(quiet.alerts)} alerts"
        )
    if fault_a.failed:
        failures.append(
            f"alerts: {fault_a.failed} failed requests — stale fallbacks "
            f"must recover every session"
        )

    return ObsBenchReport(
        seed=config.seed,
        identity=identity,
        observability=observability,
        reconciliation=reconciliation,
        alerts=alerts,
        gate_failures=failures,
    )


__all__ = ["ObsBenchConfig", "ObsBenchReport", "run_obs_bench"]
