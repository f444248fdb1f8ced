"""The trace bench: one traced end-to-end serving run, reconciled (§VI-C).

One :func:`run_trace_bench` call builds a multi-device service, installs
a seeded tracer on its clock, drives the gateway with the closed-loop
load generator, and folds the collected span forest into a
:class:`TraceBenchReport`: the per-layer critical-path decomposition,
both exports (Chrome ``trace_event`` JSON and Prometheus text), and —
when every request is sampled — a reconciliation of the telemetry
buckets against the totals the simulator accumulated independently
through :class:`~repro.hardware.timing.TimeBreakdown` and the
hypervisor/cost-model counters.

The reconciliation is the bench's point: tracing observes the same
virtual-time charges the cost model makes, through a completely separate
code path (span exclusive time vs. breakdown accumulation), so agreement
within float tolerance is strong evidence neither side drops or
double-counts a microsecond.

Determinism contract: everything — load order, sampling decisions, span
ids, export bytes — derives from ``config.seed`` through seeded DRBGs
and virtual time, so identically configured runs produce byte-identical
exports (the CLI and CI assert this by running twice).

This module imports the serving layer, so it is deliberately *not*
re-exported from :mod:`repro.telemetry` (which serving itself imports);
import ``repro.telemetry.bench`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.stack import (
    build_service,
    connect_tenants,
    load_sessions,
    traced,
)
from repro.core.device import DeviceConfig
from repro.core.service import HarDTAPEService
from repro.crypto.keccak import keccak_memo_stats
from repro.serving.gateway import Gateway, GatewayConfig, ServiceExecutor
from repro.serving.loadgen import LoadReport, run_closed_loop
from repro.serving.metrics import MetricsRegistry
from repro.telemetry.critical_path import (
    aggregate,
    attribute_all,
    attribution_table,
)
from repro.telemetry.exporters import render_chrome_trace, render_prometheus
from repro.telemetry.tracer import TraceSampler

# Bound on |traced - modeled| per reconciliation row.  The two sides sum
# the same µs-scale charges in different association orders, so the
# honest disagreement is ~1e-6 µs over a full run; a thousandth of a
# microsecond of slack catches real drops without false alarms.
TOLERANCE_US = 1e-3


@dataclass
class TraceBenchConfig:
    """One trace-bench run: fleet shape, load shape, and sampling."""

    seed: int = 7
    sample_rate: float = 1.0
    device_count: int = 2
    hevms_per_device: int = 2
    tenants: int = 3
    requests_per_tenant: int = 4


@dataclass(frozen=True)
class ReconciliationRow:
    """One bucket's telemetry total next to the simulator's own total."""

    name: str
    traced_us: float
    model_us: float

    @property
    def delta_us(self) -> float:
        return self.traced_us - self.model_us


@dataclass
class TraceBenchReport:
    """Everything one traced run produced."""

    seed: int
    sample_rate: float
    load: LoadReport
    buckets: dict[str, float]          # exclusive µs per layer, all requests
    sampled_requests: int
    span_count: int
    residual_us: float                 # max |bucket sum - root duration|
    reconciliation: list[ReconciliationRow] = field(default_factory=list)
    chrome_json: str = ""
    prometheus_text: str = ""
    # Host-process decrypt-memo accounting across the fleet's ORAM
    # clients (repro.perf).  Diagnostics only: deliberately kept out of
    # the trace/metrics exports so memo-on and memo-off runs stay
    # byte-identical on the wire.
    memo_hits: int = 0
    memo_misses: int = 0
    # keccak256 memo activity during this run (repro.crypto.keccak) —
    # same host-process-only caveat, same exclusion from exports.
    keccak_hits: int = 0
    keccak_misses: int = 0

    @property
    def max_reconciliation_error_us(self) -> float:
        return max((abs(row.delta_us) for row in self.reconciliation), default=0.0)

    def summary_lines(self) -> list[str]:
        lines = [
            f"seed {self.seed}, sample rate {self.sample_rate:.0%}: "
            f"{self.sampled_requests}/{self.load.submitted} requests traced, "
            f"{self.span_count} spans",
            f"throughput {self.load.throughput_tps:.1f} tx/s over "
            f"{self.load.duration_us / 1e6:.2f} s (virtual)",
            "",
        ]
        lines.extend(
            attribution_table(self.buckets, requests=self.sampled_requests)
            .splitlines()
        )
        if self.reconciliation:
            lines.append("")
            lines.append("reconciliation vs cost-model accounting:")
            for row in self.reconciliation:
                lines.append(
                    f"  {row.name:<22} traced {row.traced_us / 1000:>10.3f} ms"
                    f"  model {row.model_us / 1000:>10.3f} ms"
                    f"  |d| {abs(row.delta_us):.2e} us"
                )
            lines.append(
                f"  max error {self.max_reconciliation_error_us:.2e} us, "
                f"max per-request residual {self.residual_us:.2e} us"
            )
        if self.memo_hits or self.memo_misses:
            lookups = self.memo_hits + self.memo_misses
            lines.append(
                f"oram decrypt memo: {self.memo_hits}/{lookups} hits "
                f"({self.memo_hits / lookups:.0%}; host-process cache, "
                "not simulated time)"
            )
        if self.keccak_hits or self.keccak_misses:
            lookups = self.keccak_hits + self.keccak_misses
            lines.append(
                f"keccak256 memo: {self.keccak_hits}/{lookups} hits "
                f"({self.keccak_hits / lookups:.0%}; host-process cache, "
                "not simulated time)"
            )
        return lines


def _reconcile(service: HarDTAPEService, buckets: dict[str, float]):
    """Pair each telemetry bucket with the simulator's independent total.

    Only meaningful at sample rate 1.0: the breakdown/stat totals cover
    every bundle, so the spans must too.  Buckets with no cost-model
    counterpart (queueing, idle prefetch waits, the ~0-exclusive
    request/service/session wrappers) are reported but not reconciled.
    """
    breakdowns = service.stats.per_tx_breakdowns
    model = {
        "execution": sum(b.execution_us for b in breakdowns),
        "oram_storage": sum(b.oram_storage_us for b in breakdowns),
        "oram_code": sum(b.oram_code_us for b in breakdowns),
        "swap": sum(b.swap_us for b in breakdowns),
        "other": sum(b.other_us for b in breakdowns),
        # Channel AEAD + ECDSA, accumulated per bundle on each device.
        "encryption+signature": sum(
            d.hypervisor.stats.crypto_time_us for d in service.devices
        ),
        # Fixed admission cost per executed bundle.
        "hypervisor": service.cost.bundle_admission_us
        * sum(d.hypervisor.stats.bundles_executed for d in service.devices),
    }
    traced_totals = {name: buckets.get(name, 0.0) for name in model}
    traced_totals["encryption+signature"] = buckets.get("encryption", 0.0) + buckets.get(
        "signature", 0.0
    )
    return [
        ReconciliationRow(
            name=name, traced_us=traced_totals[name], model_us=model[name]
        )
        for name in model
    ]


def run_trace_bench(config: TraceBenchConfig, evalset) -> TraceBenchReport:
    """One seeded, traced serving run over ``evalset``'s transactions."""
    service = build_service(
        evalset.node,
        device_count=config.device_count,
        device_config=DeviceConfig(hevm_count=config.hevms_per_device),
    )
    keccak_before = keccak_memo_stats()
    keccak_hits_before = keccak_before.hits
    keccak_misses_before = keccak_before.misses
    with traced(
        service.clock, TraceSampler(config.sample_rate, config.seed)
    ) as tracer:
        metrics = MetricsRegistry()
        sessions = load_sessions(
            service,
            connect_tenants(service, config.tenants),
            evalset.transactions,
        )
        gateway = Gateway(
            ServiceExecutor(service),
            GatewayConfig(),
            metrics=metrics,
            tracer=tracer,
        )
        load = run_closed_loop(
            gateway, sessions, requests_per_session=config.requests_per_tenant
        )

        attributions = attribute_all(tracer)
        buckets = aggregate(attributions)
        residual = max(
            (abs(a.residual_us) for a in attributions), default=0.0
        )
        reconciliation = (
            _reconcile(service, buckets) if config.sample_rate >= 1.0 else []
        )
        memo_hits = memo_misses = 0
        for device in service.devices:
            backend = device.oram_backend
            if backend is not None and backend.client.memo is not None:
                memo_hits += backend.client.memo.stats.hits
                memo_misses += backend.client.memo.stats.misses
        return TraceBenchReport(
            seed=config.seed,
            sample_rate=config.sample_rate,
            load=load,
            buckets=buckets,
            sampled_requests=len(attributions),
            span_count=len(tracer.spans),
            residual_us=residual,
            reconciliation=reconciliation,
            chrome_json=render_chrome_trace(tracer),
            prometheus_text=render_prometheus(metrics, layer_totals=buckets),
            memo_hits=memo_hits,
            memo_misses=memo_misses,
            keccak_hits=keccak_memo_stats().hits - keccak_hits_before,
            keccak_misses=keccak_memo_stats().misses - keccak_misses_before,
        )


__all__ = [
    "TOLERANCE_US",
    "ReconciliationRow",
    "TraceBenchConfig",
    "TraceBenchReport",
    "run_trace_bench",
]
