"""The chaos harness: drive serving-layer load under injected faults.

One :func:`run_chaos` call builds a multi-device service, arms a
:class:`~repro.faults.plan.FaultPlan` over it, fronts it with the
recovering gateway executor, and drives the closed-loop load generator
— then folds what happened into a :class:`ChaosReport`: goodput
degradation versus the fault-free baseline, how much recovery cost
(extra virtual time burned by retries/backoff/failover), and a
by-reason account of every shed, failed-over, and aborted bundle.

Determinism contract: everything — load arrival order, fault decisions,
recovery timing — derives from ``(config.seed, plan)`` through seeded
DRBGs and virtual time, so the same config reproduces the same
:class:`ChaosReport` bit for bit.  With an all-zero-rate plan the armed
run is byte-identical to an unarmed one (the chaos bench asserts both).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.stack import (
    HEVMS_PER_DEVICE,
    build_service,
    connect_tenants,
    load_sessions,
    resilient_executor,
)
from repro.core.device import DeviceConfig
from repro.core.user import PreExecutionClient
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.faults.policy import FailoverBundle
from repro.hypervisor.attestation import AttestationError
from repro.serving.gateway import Gateway, GatewayConfig
from repro.serving.loadgen import LoadReport, run_closed_loop
from repro.serving.metrics import MetricsRegistry

# The fault kinds the serving path exercises end to end.  Attestation
# and sync faults fire at session-setup/sync time, not per bundle, and
# have their own dedicated tests.
SERVING_FAULT_KINDS = (
    FaultKind.DMA_DROP,
    FaultKind.DMA_DUPLICATE,
    FaultKind.DMA_CORRUPT,
    FaultKind.ORAM_STALL,
    FaultKind.ORAM_TAG_CORRUPT,
    FaultKind.HEVM_CRASH,
)

_CONNECT_ATTEMPTS = 4

# Rates are per *decision point*, and ORAM path reads are ~25× denser
# than channel messages (dozens per bundle vs one).  Scaling the ORAM
# kinds down by the density ratio makes ``fault_rate`` mean roughly
# "probability one bundle attempt is hit" uniformly across kinds, so
# escalation curves compare like with like.
ORAM_RATE_SCALE = 0.04
# A stall (40 ms) longer than the budget (25 ms) forces the typed
# OramTimeoutError path rather than silent absorption.
ORAM_STALL_US = 40_000.0
ORAM_RESPONSE_BUDGET_US = 25_000.0


@dataclass
class ChaosConfig:
    """One chaos run: fleet shape, load shape, and the fault plan."""

    seed: int = 1
    fault_rate: float = 0.0
    kinds: tuple[str, ...] = SERVING_FAULT_KINDS
    armed: bool = True                     # False: no injector at all
    device_count: int = 2
    tenants: int = 4
    requests_per_tenant: int = 5

    def build_plan(self) -> FaultPlan:
        oram_kinds = (FaultKind.ORAM_STALL, FaultKind.ORAM_TAG_CORRUPT)
        rules = [
            FaultRule(
                kind,
                self.fault_rate * (ORAM_RATE_SCALE if kind in oram_kinds else 1.0),
                stall_us=ORAM_STALL_US,
            )
            for kind in self.kinds
        ]
        return FaultPlan(self.seed, rules)


@dataclass
class ChaosReport:
    """Everything the fault-recovery bench reports for one run."""

    seed: int
    fault_rate: float
    load: LoadReport
    injected_by_kind: dict[str, int]
    recovered: int                 # completed only thanks to retry/failover
    failed_over: int               # completed on a different device
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def injected_total(self) -> int:
        return sum(self.injected_by_kind.values())

    @property
    def goodput_tps(self) -> float:
        return self.load.throughput_tps

    @property
    def completion_rate(self) -> float:
        return self.load.completion_rate

    def summary_lines(self) -> list[str]:
        lines = [
            f"seed {self.seed}, fault rate {self.fault_rate:.1%}: "
            f"{self.injected_total} fault(s) injected",
            f"goodput {self.goodput_tps:.1f} tx/s, completion rate "
            f"{self.completion_rate:.1%} ({self.load.completed} ok / "
            f"{self.load.failed} failed / {self.load.rejected} shed)",
            f"recovered {self.recovered} bundle(s), "
            f"{self.failed_over} via failover",
        ]
        for kind in sorted(self.injected_by_kind):
            lines.append(f"  injected[{kind}]: {self.injected_by_kind[kind]}")
        lines.extend(f"  {line}" for line in self.load.summary_lines())
        return lines


def run_chaos(config: ChaosConfig, evalset) -> ChaosReport:
    """One seeded chaos run over ``evalset``'s node and transactions."""
    service = build_service(
        evalset.node,
        device_count=config.device_count,
        device_config=DeviceConfig(
            hevm_count=HEVMS_PER_DEVICE,
            oram_response_budget_us=ORAM_RESPONSE_BUDGET_US,
        ),
    )
    metrics = MetricsRegistry()
    plan = config.build_plan()
    if config.armed:
        FaultInjector(plan, metrics).arm_service(service)

    def connect(client: PreExecutionClient, service, device):
        """Attest one device, retrying past injected attestation failures."""
        for attempt in range(_CONNECT_ATTEMPTS):
            try:
                return client.connect(service, device)
            except AttestationError:
                if attempt == _CONNECT_ATTEMPTS - 1:
                    raise
        raise AssertionError("unreachable")

    # Each tenant attests a session on *every* device so bundles can
    # fail over; its home device spreads round-robin over the fleet.
    sessions = load_sessions(
        service,
        connect_tenants(
            service, config.tenants, every_device=True, connect=connect
        ),
        evalset.transactions,
        lambda tenant, encoded: FailoverBundle(tenant.sessions, encoded),
    )

    executor = resilient_executor(service, metrics, max_attempts=4)
    gateway = Gateway(executor, GatewayConfig(), metrics=metrics)
    load = run_closed_loop(
        gateway, sessions, requests_per_session=config.requests_per_tenant
    )

    injected_by_kind: dict[str, int] = {}
    for record in plan.log:
        injected_by_kind[record.kind] = injected_by_kind.get(record.kind, 0) + 1
    completions = [
        request
        for request in load.outcomes
        if request.failure is None and request.recovery is not None
    ]
    recovered = sum(1 for r in completions if r.recovery.recovered)
    failed_over = sum(1 for r in completions if r.recovery.failover is not None)
    return ChaosReport(
        seed=config.seed,
        fault_rate=config.fault_rate,
        load=load,
        injected_by_kind=injected_by_kind,
        recovered=recovered,
        failed_over=failed_over,
        metrics=metrics.snapshot(),
    )


def run_escalation(
    rates: list[float], evalset, seed: int = 1, **config_kwargs
) -> list[ChaosReport]:
    """One chaos run per fault rate, same seed: the degradation curve."""
    return [
        run_chaos(
            ChaosConfig(seed=seed, fault_rate=rate, **config_kwargs), evalset
        )
        for rate in rates
    ]


__all__ = [
    "SERVING_FAULT_KINDS",
    "ChaosConfig",
    "ChaosReport",
    "run_chaos",
    "run_escalation",
]
