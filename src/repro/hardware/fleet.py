"""The §VI-D fleet model's parts: transaction shapes and the ORAM server.

The paper's scalability argument: bundles are independent, so
throughput grows with the number of HEVMs "until the ORAM server
becomes the bottleneck" — one server (25 µs CPU per query) sustains
⌊630/25⌋ ≈ 25 full-load HEVMs.

This module holds what such a fleet is priced from: the shape of one
transaction (:class:`TxProfile`, measured from the real pipeline by
:func:`profiles_from_breakdowns` or the paper's
:func:`full_load_profile`), the single ORAM server as bucketed capacity
(:class:`OramServerLedger`), and one transaction's walk against it
(:func:`profile_finish_us`).  The fleet itself — N HEVM slots fed by
closed- or open-loop tenants — runs in the serving layer, on its one
virtual-time event loop: ``repro.serving.model_gateway``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.hardware.timing import PAPER_ORAM_SHAPE, CostModel


@dataclass(frozen=True)
class TxProfile:
    """The shape of one transaction, as the fleet model needs it."""

    exec_us: float           # HEVM compute time between queries (total)
    oram_queries: int        # world-state queries (account+storage+code)
    fixed_us: float = 0.0    # per-bundle crypto etc. (ECDSA, AES)


@dataclass
class OramServerLedger:
    """The single ORAM server (§VI-D bottleneck) as fluid capacity
    bucketed over *future* time.

    A gateway prices a whole request at dispatch, so that request's
    queries land across a window during which other in-flight requests'
    queries interleave — an exact FIFO would need arrivals in global
    time order.  The ledger instead models the server as 1 µs of work
    capacity per µs of time, discretized into buckets: each query's work
    is placed in the earliest bucket at or after its arrival with spare
    capacity, overflow cascading forward.  Below capacity, concurrent
    requests don't delay each other at all; past it, work cascades and
    service times stretch — the §VI-D knee, priced at dispatch.
    (Approximation: placed work is never re-ordered, so an earlier
    dispatch is never delayed by a later one; aggregate throughput is
    still capped exactly at server capacity.)
    """

    service_us: float
    # Bucket a few query-services wide: big enough to amortize the dict,
    # small enough that within-bucket serialization (all of a bucket's
    # work notionally starts at its head) stays close to true FIFO.
    bucket_us: ClassVar[float] = 100.0
    busy_us: float = 0.0
    queue_wait_us: float = 0.0
    queries_served: int = 0
    _committed: dict[int, float] = field(default_factory=dict)
    _floor: int = 0  # every bucket below this index is forgotten

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

    def forget_before(self, time_us: float) -> None:
        """Drop the buckets wholly behind ``time_us``.

        The caller promises no query will arrive before ``time_us`` from
        now on, so those buckets are never read again and dropping them
        changes no completion time; without it the ledger grows with a
        run's virtual length, not with its load.
        """
        floor = int(time_us // self.bucket_us)
        if floor <= self._floor:
            return
        if floor - self._floor < len(self._committed):
            for index in range(self._floor, floor):
                self._committed.pop(index, None)
        else:  # a long idle stretch: cheaper to keep what is left
            self._committed = {
                index: work for index, work in self._committed.items()
                if index >= floor
            }
        self._floor = floor

    def utilization(self, duration_us: float) -> float:
        if duration_us <= 0:
            return 0.0
        return self.busy_us / duration_us

    @property
    def mean_queue_wait_us(self) -> float:
        if self.queries_served == 0:
            return 0.0
        return self.queue_wait_us / self.queries_served


def profile_finish_us(
    profile: TxProfile,
    start_us: float,
    server: OramServerLedger,
    cost: CostModel,
) -> float:
    """Finish time of one transaction walked against the shared server.

    The transaction's fixed work comes first; then it alternates
    ``queries + 1`` equal compute gaps with ORAM queries, each of which
    takes half an RTT to reach the server, is served there, and takes
    half an RTT back.  The whole walk happens at once — every query is
    reserved on the ledger up front — which is what lets a gateway price
    a request at dispatch while others are still in flight.
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


def profiles_from_breakdowns(breakdowns):
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
        profiles.append(TxProfile(exec_us=max(exec_us, 1.0), oram_queries=queries))
    return profiles
