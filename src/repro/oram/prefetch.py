"""Pagewise code prefetching (paper §IV-D, problem 3).

Fetching a contract's code pages back-to-back would show the SP a burst
of queries that singles out Code accesses; spreading them out with a
randomized interval timer makes the observed inter-query gaps
approximately uniform, so the adversary cannot tell code pages from
storage records.

After each (real) ORAM access, the timer is armed to a random value of
about half the global average inter-query gap; when it expires, the next
pending code page is prefetched.  The scheduler here produces both the
prefetch decisions and the timestamps the ORAM server trace carries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.crypto.kdf import Drbg
from repro.state.account import Address


@dataclass
class PrefetchPlanEntry:
    """One scheduled prefetch: which page, at what simulated time.

    ``reason`` records how the entry fired — ``"timer"`` for the normal
    interval-timer path, ``"drain"`` for a stall-stream flush — so the
    telemetry plane can label prefetch noise without re-deriving it.
    """

    address: Address
    page_index: int
    fire_time_us: float
    reason: str = "timer"


# The gap estimate before any query is seen, and the weight each new
# gap gets in the running (exponential moving) mean.
_INITIAL_GAP_US = 630.0
_EMA_ALPHA = 0.1


class CodePrefetcher:
    """Randomized-interval code-page prefetch scheduler."""

    def __init__(self, rng: Drbg) -> None:
        self._rng = rng
        self._pending: deque[tuple[Address, int]] = deque()
        self._mean_gap_us = _INITIAL_GAP_US
        self._last_query_us = 0.0
        self._timer_deadline_us: float | None = None

    def queue_code_pages(self, address: Address, first: int, last: int) -> None:
        """Queue code pages ``first..last`` (inclusive) for prefetch."""
        for page_index in range(first, last + 1):
            self._pending.append((address, page_index))
        if self._timer_deadline_us is None:
            self._arm(self._last_query_us)

    def clear(self) -> None:
        """Drop pending pages (frame returned before they were needed)."""
        self._pending.clear()
        self._timer_deadline_us = None

    def _arm(self, now_us: float) -> None:
        """Arm the interval timer to ~half the average gap, randomized."""
        if not self._pending:
            self._timer_deadline_us = None
            return
        half = self._mean_gap_us / 2.0
        # Uniform in [0.5, 1.5) * half the mean gap.
        jitter = 0.5 + self._rng.randint(1000) / 1000.0
        self._timer_deadline_us = now_us + half * jitter

    def on_query(self, now_us: float) -> None:
        """Notify a real (non-prefetch) ORAM query at ``now_us``.

        Gaps more than 10x the running mean are idle periods between
        bundles (attestation, signing, queueing) rather than execution
        cadence; the adversary sees them as idle too, so they are
        excluded from the gap estimate.
        """
        gap = now_us - self._last_query_us
        if 0 < gap <= 10 * self._mean_gap_us:
            self._mean_gap_us += _EMA_ALPHA * (gap - self._mean_gap_us)
        self._last_query_us = now_us
        if self._timer_deadline_us is None:
            self._arm(now_us)

    def due(self, now_us: float) -> list[PrefetchPlanEntry]:
        """Pop every prefetch whose timer expired by ``now_us``."""
        fired: list[PrefetchPlanEntry] = []
        while (
            self._pending
            and self._timer_deadline_us is not None
            and self._timer_deadline_us <= now_us
        ):
            address, page_index = self._pending.popleft()
            entry = PrefetchPlanEntry(address, page_index, self._timer_deadline_us)
            fired.append(entry)
            self._arm(self._timer_deadline_us)
        if not self._pending:
            self._timer_deadline_us = None
        return fired

    def drain(self, now_us: float) -> list[PrefetchPlanEntry]:
        """Flush all pending pages, spaced by half the mean gap.

        Called when execution actually needs pages that have not fired
        yet — the HEVM stalls and the pages stream in at the same
        consistent cadence, so the trace still shows no burst.
        """
        spacing = self._mean_gap_us / 2.0
        fired: list[PrefetchPlanEntry] = []
        time_cursor = now_us
        while self._pending:
            address, page_index = self._pending.popleft()
            entry = PrefetchPlanEntry(address, page_index, time_cursor, reason="drain")
            fired.append(entry)
            time_cursor += spacing
        self._timer_deadline_us = None
        return fired

    @property
    def pending_count(self) -> int:
        return len(self._pending)
