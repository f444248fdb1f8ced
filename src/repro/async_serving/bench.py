"""The C10K async-serving benchmark (``c10k-bench``).

Four seeded scenarios, every gate deterministic:

1. **Identity** — the same open-loop serving run
   (:func:`~repro.serving.loadgen.run_open_loop`) through the full real
   pipeline twice: once straight at the gateway, once through the async
   tier with resumption disabled.  The tier is pure pass-through — so
   the two runs must be byte-identical: same Chrome trace JSON, same
   gateway metrics snapshot, same wire bytes, same world-state digest.
2. **C10K** — 10,000 concurrent sessions multiplexed by one tier over a
   sharded gateway fleet (model-mode executors, real sealed tickets).
   Sessions go idle between bursts, get suspended into tickets, and
   resume on the next burst.  Gates: peak live sessions ≥ the target,
   every expected resume happened via ticket (zero stale fallbacks),
   every dispatched request completed, and p99 resumed-handshake cost
   ≤ 5% of the full attestation+DHKE handshake.
3. **Determinism** — a smaller copy of the C10K scenario run twice with
   the same seed; the full metrics + outcome digests must match.
4. **Epoch bump** — the model hypervisor "restarts" mid-run; every
   outstanding ticket must be refused as a typed
   :class:`~repro.hypervisor.resumption.StaleTicketError` (which the
   fault policies must classify non-retryable) and every session must
   recover through the full-handshake fallback with no lost requests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.async_serving.tier import ModelHandshakeEngine
from repro.bench.tiers import ROUNDS, run_model_tier, tier_open_loop
from repro.bench.report import GateReport, identity_verdict
from repro.bench.stack import (
    build_evalset,
    build_service,
    compare_identity,
    connect_tenants,
    identity_hashes,
    load_sessions,
    traced,
)
from repro.faults.policy import RetryPolicy
from repro.hypervisor.resumption import StaleTicketError
from repro.serving.gateway import Gateway, GatewayConfig, ServiceExecutor
from repro.serving.loadgen import LoadReport, run_open_loop
from repro.serving.metrics import MetricsRegistry
from repro.telemetry.tracer import TraceSampler

# The identity scenario's real-pipeline world and offered load.
IDENTITY_RATE_RPS = 40.0
# The C10K scenario: concurrent sessions held, on a model-mode fleet.
CONCURRENCY_TARGET = 10_000
SHARDS = 8
CORES_PER_SHARD = 64
OPEN_WINDOW_US = 2_000_000.0
MAX_RESUMED_COST_SHARE = 0.05   # p99 resumed / p99 full


@dataclass
class C10kBenchConfig:
    """One c10k-bench invocation."""

    seed: int = 1
    # -- identity scenario (real pipeline, small) ----------------------
    identity_tenants: int = 3
    identity_requests: int = 9
    # -- determinism + epoch scenarios (small model runs) --------------
    determinism_sessions: int = 256
    epoch_sessions: int = 64

    @classmethod
    def smoke(cls, seed: int = 1) -> "C10kBenchConfig":
        """CI-sized: the 10k concurrency gate stays (it IS the bench);
        the real-pipeline identity run and side scenarios shrink."""
        return cls(
            seed=seed,
            identity_tenants=2,
            identity_requests=6,
            determinism_sessions=128,
            epoch_sessions=32,
        )


# ----------------------------------------------------------------------
# Scenario 1: identity (through the tier == straight at the gateway)
# ----------------------------------------------------------------------

def _run_identity_stack(config: C10kBenchConfig, through_tier: bool) -> dict:
    """One full real-pipeline open-loop run, at the gateway or through
    the tier; returns its identity hashes."""
    evalset = build_evalset()
    service = build_service(evalset.node)
    metrics = MetricsRegistry()
    with traced(service.clock, TraceSampler(1.0, config.seed)) as tracer:
        gateway = Gateway(
            ServiceExecutor(service), GatewayConfig(),
            metrics=metrics, tracer=tracer,
        )
        sessions = load_sessions(
            service,
            connect_tenants(service, config.identity_tenants),
            evalset.transactions,
        )
        offered = dict(
            rate_rps=IDENTITY_RATE_RPS,
            total_requests=config.identity_requests,
            seed=config.seed,
        )
        if through_tier:
            _, load = tier_open_loop(gateway, sessions, **offered)
        else:
            load = run_open_loop(gateway, sessions, **offered)
        return identity_hashes(tracer, metrics, [load], service)


# ----------------------------------------------------------------------
# Scenarios 2–4: model-mode tier runs
# ----------------------------------------------------------------------

@dataclass
class _ModelRunResult:
    tier_metrics: dict[str, float]
    load: LoadReport
    peak_live: int
    live_at_end: int
    stale_fallbacks: int
    digest: str


def _run_model_tier(
    config: C10kBenchConfig,
    *,
    session_count: int,
    open_window_us: float = OPEN_WINDOW_US,
    before_first_burst=None,
) -> _ModelRunResult:
    """One C10K-shaped model run: open, burst, suspend, resume, repeat."""
    tier, load = run_model_tier(
        seed=config.seed,
        session_count=session_count,
        shards=SHARDS,
        cores_per_shard=CORES_PER_SHARD,
        open_window_us=open_window_us,
        session_prefix=b"c10k",
        before_first_burst=before_first_burst,
    )
    snapshot = tier.metrics.snapshot()
    digest = hashlib.sha256(
        json.dumps(
            {
                "tier": snapshot,
                "completed": load.completed,
                "failed": load.failed,
                "rejected": load.rejected,
                "duration_us": load.duration_us,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()
    return _ModelRunResult(
        tier_metrics=snapshot,
        load=load,
        peak_live=tier.peak_live,
        live_at_end=tier.live_sessions,
        stale_fallbacks=int(snapshot.get("tier.stale_tickets", 0)),
        digest=digest,
    )


# ----------------------------------------------------------------------
# Report and gates
# ----------------------------------------------------------------------

@dataclass
class C10kBenchReport(GateReport):
    identity: dict[str, bool]
    c10k: dict
    determinism: dict
    epoch: dict

    bench = "c10k"

    def section_lines(self) -> list[str]:
        ratio = self.c10k["resumed_p99_us"] / self.c10k["full_p99_us"]
        return [
            "identity (reactor, resumption off vs synchronous baseline): "
            + identity_verdict(self.identity),
            f"c10k: {self.c10k['peak_live']} concurrent sessions "
            f"(target {self.c10k['target']}), "
            f"{self.c10k['completed']} requests completed, "
            f"{self.c10k['resumed']} ticket resumes / "
            f"{self.c10k['full_handshakes']} full handshakes",
            "  handshake cost p50/p99: full "
            f"{self.c10k['full_p50_us'] / 1000:.1f}/"
            f"{self.c10k['full_p99_us'] / 1000:.1f} ms, resumed "
            f"{self.c10k['resumed_p50_us'] / 1000:.2f}/"
            f"{self.c10k['resumed_p99_us'] / 1000:.2f} ms "
            f"(p99 share {ratio:.2%})",
            "determinism: "
            + (
                "seeded rerun digest matches"
                if self.determinism["matches"]
                else "DIGEST MISMATCH"
            ),
            f"epoch bump: {self.epoch['stale_refused']} stale ticket(s) "
            f"refused typed, {self.epoch['fallback_handshakes']} "
            f"fallback handshake(s), "
            f"{self.epoch['completed']} requests completed",
        ]


def run_c10k_bench(config: C10kBenchConfig) -> C10kBenchReport:
    # 1. Identity.
    identity, failures = compare_identity(
        _run_identity_stack(config, through_tier=False),
        _run_identity_stack(config, through_tier=True),
        "identity: the run through the tier changed the {name} "
        "bytes of a resumption-disabled seeded run",
    )

    # 2. C10K.
    c10k = _run_model_tier(config, session_count=CONCURRENCY_TARGET)
    tm = c10k.tier_metrics
    expected_resumes = CONCURRENCY_TARGET * ROUNDS
    c10k_obj = {
        "target": CONCURRENCY_TARGET,
        "peak_live": c10k.peak_live,
        "live_at_end": c10k.live_at_end,
        "shards": SHARDS,
        "completed": c10k.load.completed,
        "failed": c10k.load.failed,
        "rejected": c10k.load.rejected,
        "full_handshakes": int(tm.get("tier.full_handshakes", 0)),
        "resumed": int(tm.get("tier.resumed", 0)),
        "suspended": int(tm.get("tier.suspended", 0)),
        "stale_fallbacks": c10k.stale_fallbacks,
        "full_p50_us": tm.get("tier.handshake_full_us.p50", 0.0),
        "full_p99_us": tm.get("tier.handshake_full_us.p99", 0.0),
        "resumed_p50_us": tm.get("tier.handshake_resumed_us.p50", 0.0),
        "resumed_p99_us": tm.get("tier.handshake_resumed_us.p99", 0.0),
        "digest": c10k.digest,
    }
    if c10k.peak_live < CONCURRENCY_TARGET:
        failures.append(
            f"c10k: peaked at {c10k.peak_live} concurrent sessions, "
            f"target {CONCURRENCY_TARGET}"
        )
    if c10k_obj["resumed"] != expected_resumes:
        failures.append(
            f"c10k: {c10k_obj['resumed']} ticket resumes, expected "
            f"{expected_resumes} (stale fallbacks: {c10k.stale_fallbacks})"
        )
    if c10k.load.failed or c10k.load.rejected:
        failures.append(
            f"c10k: {c10k.load.failed} failed / {c10k.load.rejected} "
            f"rejected requests in an under-capacity run"
        )
    if c10k_obj["full_p99_us"] <= 0:
        failures.append("c10k: no full-handshake samples recorded")
    else:
        share = c10k_obj["resumed_p99_us"] / c10k_obj["full_p99_us"]
        if share > MAX_RESUMED_COST_SHARE:
            failures.append(
                f"c10k: p99 resumed handshake is {share:.1%} of the full "
                f"handshake, cap is {MAX_RESUMED_COST_SHARE:.0%}"
            )

    # 3. Determinism (smaller twin, run twice).
    det_a = _run_model_tier(config, session_count=config.determinism_sessions)
    det_b = _run_model_tier(config, session_count=config.determinism_sessions)
    determinism = {
        "sessions": config.determinism_sessions,
        "digest": det_a.digest,
        "matches": det_a.digest == det_b.digest,
    }
    if not determinism["matches"]:
        failures.append("determinism: seeded rerun produced a different digest")

    # 4. Epoch bump: every ticket refused typed, every session recovers.
    # Compress the open window so every session has handshaken AND idled
    # into SUSPENDED (minting its ticket at epoch 0) before the bump fires
    # at round_gap - 1us; only then does "all tickets refused" hold exactly.
    epoch = _run_model_tier(
        config,
        session_count=config.epoch_sessions,
        open_window_us=50_000.0,
        before_first_burst=ModelHandshakeEngine.advance_epoch,
    )
    em = epoch.tier_metrics
    epoch_obj = {
        "sessions": config.epoch_sessions,
        "stale_refused": int(em.get("tier.stale_tickets", 0)),
        "fallback_handshakes": epoch.stale_fallbacks,
        "resumed": int(em.get("tier.resumed", 0)),
        "completed": epoch.load.completed,
        "failed": epoch.load.failed,
        "rejected": epoch.load.rejected,
        "stale_retryable": RetryPolicy().is_recoverable(
            StaleTicketError(0, 1)
        ),
    }
    if epoch_obj["stale_refused"] < config.epoch_sessions:
        failures.append(
            f"epoch: only {epoch_obj['stale_refused']} stale refusals for "
            f"{config.epoch_sessions} outstanding tickets"
        )
    if epoch.load.failed or epoch.load.rejected:
        failures.append(
            f"epoch: {epoch.load.failed} failed / {epoch.load.rejected} "
            f"rejected requests after the epoch bump"
        )
    if epoch_obj["stale_retryable"]:
        failures.append(
            "epoch: RetryPolicy classifies StaleTicketError as retryable"
        )

    return C10kBenchReport(
        seed=config.seed,
        identity=identity,
        c10k=c10k_obj,
        determinism=determinism,
        epoch=epoch_obj,
        gate_failures=failures,
    )


__all__ = ["C10kBenchConfig", "C10kBenchReport", "run_c10k_bench"]
