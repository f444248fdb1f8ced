"""Fleet-scale discrete-event simulation (paper §VI-D).

The paper's scalability argument: bundles are independent, so
throughput grows with the number of HEVMs "until the ORAM server
becomes the bottleneck" — one server (25 µs CPU per query) sustains
⌊630/25⌋ ≈ 25 full-load HEVMs.

This module simulates that fleet directly: N HEVMs each grind through
transactions whose shapes (execution time, ORAM query count) come from
measured per-transaction profiles; every ORAM query travels over
Ethernet and queues at a single-server FIFO.  The output is the
throughput curve and the server-utilization knee.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.hardware.timing import PAPER_ORAM_SHAPE, CostModel


@dataclass(frozen=True)
class TxProfile:
    """The shape of one transaction, as the fleet model needs it."""

    exec_us: float           # HEVM compute time between queries (total)
    oram_queries: int        # world-state queries (account+storage+code)
    fixed_us: float = 0.0    # per-bundle crypto etc. (ECDSA, AES)


@dataclass
class OramServerTimeline:
    """The single ORAM server as a FIFO timeline (§VI-D bottleneck).

    Shared between :class:`FleetSimulator` and the serving layer's model
    executor so both price server contention identically: a query that
    arrives while the server is busy waits until it frees, and every
    query costs the same CPU service time.
    """

    service_us: float
    free_at_us: float = 0.0
    busy_us: float = 0.0
    queue_wait_us: float = 0.0
    queries_served: int = 0

    def serve(self, arrival_us: float) -> float:
        """Serve one query arriving at ``arrival_us``; return departure."""
        start = max(arrival_us, self.free_at_us)
        self.queue_wait_us += start - arrival_us
        self.free_at_us = start + self.service_us
        self.busy_us += self.service_us
        self.queries_served += 1
        return self.free_at_us

    def utilization(self, duration_us: float) -> float:
        if duration_us <= 0:
            return 0.0
        return self.busy_us / duration_us


@dataclass
class OramServerLedger:
    """The server as fluid capacity bucketed over *future* time.

    The event-driven :class:`OramServerTimeline` needs arrivals in
    global time order; a gateway pricing a whole request at dispatch
    cannot provide that — its queries land across a window during which
    other in-flight requests' queries interleave.  The ledger models the
    server as 1 µs of work capacity per µs of time, discretized into
    buckets: each query's work is placed in the earliest bucket at or
    after its arrival with spare capacity, overflow cascading forward.
    Below capacity, concurrent requests don't delay each other at all;
    past it, work cascades and service times stretch — the same §VI-D
    knee, priced at dispatch.  (Approximation: placed work is never
    re-ordered, so an earlier dispatch is never delayed by a later one;
    aggregate throughput is still capped exactly at server capacity.)
    """

    service_us: float
    # Bucket a few query-services wide: big enough to amortize the dict,
    # small enough that within-bucket serialization (all of a bucket's
    # work notionally starts at its head) stays close to true FIFO.
    bucket_us: float = 100.0
    busy_us: float = 0.0
    queue_wait_us: float = 0.0
    queries_served: int = 0
    _committed: dict[int, float] = field(default_factory=dict)

    def serve(self, arrival_us: float) -> float:
        """Reserve one query's work; return its completion time."""
        work = self.service_us
        self.busy_us += work
        self.queries_served += 1
        index = max(0, int(arrival_us // self.bucket_us))
        completion = arrival_us + self.service_us
        while work > 0:
            committed = self._committed.get(index, 0.0)
            free = self.bucket_us - committed
            if free <= 0:
                index += 1
                continue
            take = min(free, work)
            self._committed[index] = committed + take
            work -= take
            completion = index * self.bucket_us + committed + take
        completion = max(completion, arrival_us + self.service_us)
        self.queue_wait_us += completion - arrival_us - self.service_us
        return completion

    def utilization(self, duration_us: float) -> float:
        if duration_us <= 0:
            return 0.0
        return self.busy_us / duration_us


def profile_finish_us(
    profile: TxProfile,
    start_us: float,
    server: "OramServerTimeline | OramServerLedger",
    cost: CostModel,
) -> float:
    """Finish time of one transaction walked against a shared server.

    The transaction alternates compute gaps with ORAM queries exactly as
    :class:`FleetSimulator` does, but its whole walk happens at once:
    every query is reserved on the shared server model up front.  Use an
    :class:`OramServerLedger` when requests are priced at dispatch while
    others are still in flight (the serving gateway); the event-ordered
    :class:`OramServerTimeline` is only correct when calls arrive in
    global time order.
    """
    half_rtt = cost.ethernet_rtt_us / 2.0
    segments = profile.oram_queries + 1
    gap = profile.exec_us / segments
    now = start_us + profile.fixed_us
    if profile.oram_queries == 0:
        return now + profile.exec_us
    for _ in range(profile.oram_queries):
        now += gap
        departure = server.serve(now + half_rtt)
        now = departure + half_rtt
    return now + gap


def full_load_profile(cost: CostModel, oram_queries: int = 16) -> TxProfile:
    """The paper's "full-load HEVM" shape (§VI-D).

    An HEVM at full load issues one ORAM query every ≈630 µs, so a
    25 µs/query server sustains ⌊630/25⌋ ≈ 25 of them.  The compute gap
    is whatever is left of the 630 µs period after the wire and the
    unloaded server are paid (clamped to stay positive under cost models
    whose RTT alone exceeds the period — there the knee simply moves).
    """
    period_us = 630.0
    gap = max(
        1.0, period_us - cost.oram_server_cpu_us - cost.ethernet_rtt_us
    )
    return TxProfile(exec_us=gap * (oram_queries + 1), oram_queries=oram_queries)


@dataclass
class FleetResult:
    """Outcome of one fleet run."""

    hevm_count: int
    duration_us: float
    transactions_completed: int
    server_busy_us: float
    total_queue_wait_us: float
    queries_served: int

    @property
    def throughput_tps(self) -> float:
        if self.duration_us == 0:
            return 0.0
        return self.transactions_completed / (self.duration_us / 1e6)

    @property
    def server_utilization(self) -> float:
        if self.duration_us == 0:
            return 0.0
        return self.server_busy_us / self.duration_us

    @property
    def mean_queue_wait_us(self) -> float:
        if self.queries_served == 0:
            return 0.0
        return self.total_queue_wait_us / self.queries_served


@dataclass
class _Hevm:
    """One simulated core's position in its work loop."""

    index: int
    tx_cursor: int = 0
    queries_left: int = 0
    completed: int = 0


class FleetSimulator:
    """Event-driven model: N HEVM clients, one ORAM server, one wire.

    Each transaction alternates compute segments with ORAM queries:
    the inter-query compute gap is ``exec_us / oram_queries``; a query
    costs half an RTT to reach the server, possibly waits in the FIFO,
    is served for ``oram_server_cpu_us``, and takes half an RTT back.
    """

    def __init__(
        self,
        profiles: list[TxProfile],
        cost: CostModel | None = None,
    ) -> None:
        if not profiles:
            raise ValueError("need at least one transaction profile")
        self.profiles = profiles
        self.cost = cost or CostModel()

    def run(
        self,
        hevm_count: int,
        transactions_per_hevm: int = 50,
    ) -> FleetResult:
        """Simulate until every core finishes its transaction quota."""
        cost = self.cost
        half_rtt = cost.ethernet_rtt_us / 2.0
        server = OramServerTimeline(cost.oram_server_cpu_us)

        # Event heap: (time, seq, kind, hevm_index)
        events: list[tuple[float, int, str, int]] = []
        sequence = 0

        def schedule(at: float, kind: str, hevm_index: int) -> None:
            nonlocal sequence
            heapq.heappush(events, (at, sequence, kind, hevm_index))
            sequence += 1

        hevms = [_Hevm(i) for i in range(hevm_count)]
        completed = 0
        now = 0.0

        def profile_for(hevm: _Hevm) -> TxProfile:
            return self.profiles[
                (hevm.index + hevm.tx_cursor) % len(self.profiles)
            ]

        def start_tx(hevm: _Hevm, at: float) -> None:
            profile = profile_for(hevm)
            hevm.queries_left = profile.oram_queries
            # Fixed per-bundle work happens before the first query.
            first_gap = profile.fixed_us + self._gap_us(profile)
            if profile.oram_queries > 0:
                schedule(at + first_gap, "send_query", hevm.index)
            else:
                schedule(at + profile.fixed_us + profile.exec_us,
                         "tx_done", hevm.index)

        for hevm in hevms:
            start_tx(hevm, 0.0)

        while events:
            now, _, kind, index = heapq.heappop(events)
            hevm = hevms[index]
            if kind == "send_query":
                # Arrives at the server after half an RTT.
                schedule(now + half_rtt, "server_arrival", index)
            elif kind == "server_arrival":
                departure = server.serve(now)
                schedule(departure + half_rtt, "response", index)
            elif kind == "response":
                hevm.queries_left -= 1
                profile = profile_for(hevm)
                if hevm.queries_left > 0:
                    schedule(now + self._gap_us(profile), "send_query", index)
                else:
                    schedule(now + self._gap_us(profile), "tx_done", index)
            elif kind == "tx_done":
                hevm.completed += 1
                hevm.tx_cursor += 1
                completed += 1
                if hevm.completed < transactions_per_hevm:
                    start_tx(hevm, now)
        return FleetResult(
            hevm_count=hevm_count,
            duration_us=now,
            transactions_completed=completed,
            server_busy_us=server.busy_us,
            total_queue_wait_us=server.queue_wait_us,
            queries_served=server.queries_served,
        )

    @staticmethod
    def _gap_us(profile: TxProfile) -> float:
        """Compute time between consecutive queries of one transaction."""
        segments = profile.oram_queries + 1
        return profile.exec_us / segments

    def sweep(
        self,
        hevm_counts: list[int],
        transactions_per_hevm: int = 50,
    ) -> list[FleetResult]:
        """Throughput curve over fleet sizes."""
        return [
            self.run(count, transactions_per_hevm) for count in hevm_counts
        ]


def profiles_from_breakdowns(breakdowns, run_stats_queries: int | None = None):
    """Build :class:`TxProfile` list from measured per-tx breakdowns.

    ``breakdowns`` are :class:`~repro.hardware.timing.TimeBreakdown`
    objects from a real service run; ORAM time is converted back into a
    query count via the per-access cost, keeping the fleet model
    consistent with the end-to-end pipeline.
    """
    cost = CostModel()
    access_us = cost.oram_access_us(*PAPER_ORAM_SHAPE)
    profiles = []
    for breakdown in breakdowns:
        oram_us = breakdown.oram_storage_us + breakdown.oram_code_us
        queries = max(1, round(oram_us / access_us))
        exec_us = breakdown.execution_us + breakdown.other_us + breakdown.swap_us
        profiles.append(
            TxProfile(
                exec_us=max(exec_us, 1.0),
                oram_queries=queries,
                fixed_us=breakdown.signature_us + breakdown.encryption_us,
            )
        )
    return profiles


def saturation_point(results: list[FleetResult], threshold: float = 0.95) -> int:
    """Smallest fleet size whose server utilization crosses ``threshold``.

    Returns the last swept size if the server never saturates.
    """
    for result in results:
        if result.server_utilization >= threshold:
            return result.hevm_count
    return results[-1].hevm_count if results else 0
