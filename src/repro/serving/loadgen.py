"""Closed- and open-loop load drivers for the gateway.

The §VI-D question — where does throughput stop scaling? — needs a
workload *driver*, not just a workload: arrivals must keep coming while
earlier requests are still queued.  Two canonical drivers:

* **closed loop** — N sessions each keep one request in flight,
  issuing the next one when the previous completes.  Offered load
  adapts to capacity, so this traces the saturation *throughput* curve.
* **open loop** — Poisson arrivals fire at their scheduled times
  regardless of completions, so offered load can exceed capacity.  This is the regime where queues grow, tails
  stretch, and admission control earns its keep.

All randomness flows from a seeded :class:`~repro.crypto.kdf.Drbg`, and
all time is the frontend's reactor — identically seeded runs produce
identical per-request latencies and metrics snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.crypto.kdf import Drbg
from repro.hardware.fleet import TxProfile, full_load_profile
from repro.hardware.timing import CostModel
from repro.serving.gateway import (
    FleetModelExecutor,
    Gateway,
    GatewayConfig,
    GatewayRequest,
    RequestStatus,
)


@dataclass
class LoadSession:
    """One tenant's identity and payload source."""

    session_id: bytes
    make_payload: Callable[[int], Any]   # request ordinal -> payload
    device_index: int | None = None


@dataclass
class LoadReport:
    """Everything a bench needs from one driven run."""

    submitted: int
    completed: int
    rejected_by_reason: dict[str, int]
    duration_us: float
    outcomes: list[GatewayRequest]
    metrics: dict[str, float]
    failed: int = 0
    # Keyed by the innermost typed fault that sank each request (the
    # ``cause_type`` of its :class:`~repro.serving.gateway.ExecutionFailure`).
    failed_by_reason: dict[str, int] = field(default_factory=dict)

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_reason.values())

    @property
    def completion_rate(self) -> float:
        """Fraction of *dispatched* requests that completed (goodput share)."""
        dispatched = self.completed + self.failed
        if dispatched == 0:
            return 0.0
        return self.completed / dispatched

    @property
    def shed_rate(self) -> float:
        """Fraction of submissions that never ran (rejected at the door)."""
        if self.submitted == 0:
            return 0.0
        return self.rejected / self.submitted

    @property
    def throughput_tps(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return self.completed / (self.duration_us / 1e6)

    def queue_wait_percentile_us(self, p: float) -> float:
        return self.metrics.get(f"gateway.queue_wait_us.p{int(p)}", 0.0)

    def latency_percentile_us(self, p: float) -> float:
        return self.metrics.get(f"gateway.latency_us.p{int(p)}", 0.0)

    def summary_lines(self) -> list[str]:
        waits = [self.queue_wait_percentile_us(p) for p in (50, 95, 99)]
        lats = [self.latency_percentile_us(p) for p in (50, 95, 99)]
        lines = [
            f"submitted {self.submitted}, completed {self.completed}, "
            f"failed {self.failed}, rejected {self.rejected} "
            f"(shed rate {self.shed_rate:.1%})",
            f"throughput {self.throughput_tps:.1f} tx/s over "
            f"{self.duration_us / 1e6:.2f} s (virtual)",
            "queue wait p50/p95/p99: "
            f"{waits[0] / 1000:.2f} / {waits[1] / 1000:.2f} / "
            f"{waits[2] / 1000:.2f} ms",
            "latency    p50/p95/p99: "
            f"{lats[0] / 1000:.2f} / {lats[1] / 1000:.2f} / "
            f"{lats[2] / 1000:.2f} ms",
        ]
        for reason in sorted(self.rejected_by_reason):
            lines.append(
                f"  rejected[{reason}]: {self.rejected_by_reason[reason]}"
            )
        for reason in sorted(self.failed_by_reason):
            lines.append(
                f"  failed[{reason}]: {self.failed_by_reason[reason]}"
            )
        return lines


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------

def arrival_times(rate_rps: float, count: int, rng: Drbg) -> Iterator[float]:
    """Yield ``count`` absolute Poisson arrival times (µs): exponential
    gaps with mean ``1e6 / rate_rps``."""
    if rate_rps <= 0:
        raise ValueError("need a positive arrival rate")
    mean_gap = 1e6 / rate_rps
    now = 0.0
    for _ in range(count):
        u = int.from_bytes(rng.random_bytes(7), "big") / float(1 << 56)
        now += -mean_gap * math.log(1.0 - u)
        yield now


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------

def run_open_loop(
    frontend,
    sessions: list[LoadSession],
    *,
    rate_rps: float,
    total_requests: int,
    seed: int = 1,
) -> LoadReport:
    """Fire arrivals at their scheduled times, round-robin over sessions.

    ``frontend`` is a gateway, a shard router, or an async tier over
    either.  Each arrival is an event on the frontend's reactor, so
    completions due by an arrival's instant run before it; the payload
    factory is invoked inside the arrival, preserving creation order
    relative to dispatches.  Runs the reactor to idle.
    """
    rng = Drbg(seed.to_bytes(8, "big"), personalization=b"loadgen-open")
    reactor = frontend.reactor
    start_us = reactor.now_us
    outcomes: list[GatewayRequest] = []

    def arrive(session: LoadSession, ordinal: int) -> None:
        frontend.submit(
            session.session_id,
            session.make_payload(ordinal),
            device_index=session.device_index,
            on_done=outcomes.append,
        )

    ordinals = [0] * len(sessions)
    for index, at_us in enumerate(
        arrival_times(rate_rps, total_requests, rng)
    ):
        slot = index % len(sessions)
        reactor.call_at(start_us + at_us, arrive, sessions[slot], ordinals[slot])
        ordinals[slot] += 1
    reactor.run_until_idle()
    return load_report(outcomes, frontend.load_metrics(), start_us)


def run_closed_loop(
    gateway: Gateway,
    sessions: list[LoadSession],
    *,
    requests_per_session: int,
) -> LoadReport:
    """Each session keeps one request in flight and issues the next the
    instant the previous one finishes.

    A rejection consumes the session's quota like a completion would, so
    the run always terminates even when every submission is rejected.
    """
    start_us = gateway.now_us
    by_session = {session.session_id: session for session in sessions}
    issued = {session.session_id: 0 for session in sessions}
    outcomes: list[GatewayRequest] = []

    def issue(session: LoadSession, at_us: float) -> None:
        ordinal = issued[session.session_id]
        issued[session.session_id] = ordinal + 1
        request = gateway.submit(
            session.session_id,
            session.make_payload(ordinal),
            at_us=max(at_us, gateway.now_us),
            device_index=session.device_index,
        )
        if request.status == RequestStatus.REJECTED:
            outcomes.append(request)
            reissue(session, gateway.now_us)

    def reissue(session: LoadSession, finished_at_us: float) -> None:
        if issued[session.session_id] < requests_per_session:
            issue(session, finished_at_us)

    for session in sessions:
        if requests_per_session > 0:
            issue(session, start_us)

    while True:
        next_at = gateway.reactor.peek_next_us()
        terminal = (
            gateway.advance_until(next_at)
            if next_at is not None
            else gateway.drain()  # flush buffered terminals; runs nothing new
        )
        for request in terminal:
            outcomes.append(request)
            reissue(by_session[request.session_id], request.finished_at_us)
        if next_at is None and not terminal and not gateway.in_flight:
            break  # idle, or queued-but-undispatchable: nothing will finish
    return load_report(outcomes, gateway.load_metrics(), start_us)


def load_report(
    outcomes: list[GatewayRequest], metrics: dict[str, float], start_us: float
) -> LoadReport:
    """Aggregate a run's outcomes; it lasted until the last one left."""
    rejected: dict[str, int] = {}
    failed_by_reason: dict[str, int] = {}
    completed = failed = 0
    for request in outcomes:
        if request.status == RequestStatus.COMPLETED:
            completed += 1
        elif request.status == RequestStatus.FAILED:
            failed += 1
            reason = request.failure.cause_type
            failed_by_reason[reason] = failed_by_reason.get(reason, 0) + 1
        elif request.status == RequestStatus.REJECTED:
            rejected[request.reject_reason] = (
                rejected.get(request.reject_reason, 0) + 1
            )
    return LoadReport(
        submitted=len(outcomes),
        completed=completed,
        rejected_by_reason=rejected,
        duration_us=max(
            (request.finished_at_us - start_us for request in outcomes),
            default=0.0,
        ),
        outcomes=outcomes,
        metrics=metrics,
        failed=failed,
        failed_by_reason=failed_by_reason,
    )


# ----------------------------------------------------------------------
# Synthetic model-mode workloads (TxProfile shapes, no bytecode)
# ----------------------------------------------------------------------

def synthetic_profiles(
    cost: CostModel,
    kind: str = "full-load",
    count: int = 8,
    seed: int = 1,
) -> list[TxProfile]:
    """Deterministic ``TxProfile`` sets for model-mode load.

    ``full-load`` repeats the paper's §VI-D saturation shape;
    ``mixed`` spreads query counts and compute around it, shaped like a
    real evaluation-set stream (light transfers to heavy call chains).
    """
    if kind == "full-load":
        return [full_load_profile(cost)] * count
    if kind != "mixed":
        raise ValueError(f"unknown synthetic workload {kind!r}")
    rng = Drbg(seed.to_bytes(8, "big"), personalization=b"loadgen-profiles")
    base = full_load_profile(cost)
    profiles = []
    for _ in range(count):
        queries = 2 + rng.randint(30)
        gap = base.exec_us / (base.oram_queries + 1)
        exec_us = gap * (queries + 1) * (0.5 + rng.randint(100) / 100.0)
        profiles.append(
            TxProfile(
                exec_us=exec_us,
                oram_queries=queries,
                fixed_us=float(rng.randint(2000)),
            )
        )
    return profiles


def model_sessions(
    session_count: int, profiles: list[TxProfile]
) -> list[LoadSession]:
    """Synthetic tenants for :class:`FleetModelExecutor` gateways.

    Session *i* cycles through the profile list starting at offset *i*,
    so load mixes across tenants without shared mutable state.
    """
    if not profiles:
        raise ValueError("need at least one transaction profile")
    sessions = []
    for index in range(session_count):
        def make_payload(ordinal: int, offset: int = index) -> TxProfile:
            return profiles[(offset + ordinal) % len(profiles)]

        sessions.append(
            LoadSession(
                session_id=b"tenant-%04d" % index,
                make_payload=make_payload,
            )
        )
    return sessions


def model_gateway(
    cores: int, cost: CostModel, shed_depth: int | None = None
) -> Gateway:
    """The §VI-D fleet: ``cores`` HEVM slots sharing one ORAM server.

    A :class:`FleetModelExecutor` gateway whose queue holds four
    requests per core, four in flight per session, shedding at
    ``shed_depth`` if given.  The fleet sweeps (S2, S4, serve-bench)
    price through it; read server utilization and queue wait off
    ``gateway.executor.server``.
    """
    return Gateway(
        FleetModelExecutor(core_count=cores, cost=cost),
        GatewayConfig(
            max_queue_depth=4 * cores,
            max_in_flight_per_session=4,
            shed_depth=shed_depth,
        ),
    )
