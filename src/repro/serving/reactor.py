"""The serving pipeline's one virtual-time event loop.

:class:`VirtualReactor` runs in the same time domain as
:class:`~repro.hardware.timing.SimClock`.  Every event fires at an exact
simulated microsecond in a deterministic order — time, then *rank*,
then scheduling order — so identically-seeded runs are byte-identical,
the property every bench gate in this repo leans on.

The rank is the pipeline's one tie-break rule: a :data:`COMPLETION`
(an HEVM slot freeing) due at T fires before an :data:`ARRIVAL`
(a submission, a handshake finishing, an idle timer) at T, including a
zero-service completion *created* at T by an earlier arrival.  That is
what ``Gateway.submit(at_us=T)`` always meant — "run everything that
finished by T, then enqueue" — now as a property of the heap.

The reactor knows nothing about sessions or gateways: it schedules
callbacks.  A :class:`~repro.serving.gateway.Gateway` creates a private
one unless handed a shared one; a router's gateways and the async tier
above them all share one.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

COMPLETION = 0
ARRIVAL = 1


class ReactorHandle:
    """A scheduled callback; ``cancel()`` is O(1), the heap skips it."""

    __slots__ = ("callback", "args", "_reactor")

    def __init__(self, callback: Callable[..., Any], args: tuple,
                 reactor: "VirtualReactor") -> None:
        self.callback: Callable[..., Any] | None = callback
        self.args = args
        self._reactor = reactor

    def cancel(self) -> None:
        """Drop the event; a no-op once it has fired or been cancelled."""
        if self.callback is not None:
            self.callback = None
            self._reactor._pending -= 1


class VirtualReactor:
    """Deterministic virtual-time event loop.

    Events fire strictly in ``(at_us, rank, scheduling order)``; a
    callback may schedule further events (including at the current
    instant — they run in the same pass).  Time never flows backwards.
    """

    def __init__(self, start_us: float = 0.0) -> None:
        self._now_us = start_us
        self._seq = 0
        # (at_us, rank, seq, handle): seq is unique, handles never compare.
        self._heap: list[tuple[float, int, int, ReactorHandle]] = []
        self._pending = 0

    @property
    def now_us(self) -> float:
        return self._now_us

    @property
    def pending(self) -> int:
        """Scheduled, not-yet-fired, not-cancelled events."""
        return self._pending

    def call_at(self, at_us: float, callback: Callable[..., Any],
                *args: Any, rank: int = ARRIVAL) -> ReactorHandle:
        if at_us < self._now_us:
            raise ValueError(
                f"cannot schedule at {at_us} (now is {self._now_us})"
            )
        self._seq += 1
        handle = ReactorHandle(callback, args, self)
        heapq.heappush(self._heap, (at_us, rank, self._seq, handle))
        self._pending += 1
        return handle

    def call_later(self, delay_us: float, callback: Callable[..., Any],
                   *args: Any) -> ReactorHandle:
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        return self.call_at(self._now_us + delay_us, callback, *args)

    def peek_next_us(self) -> float | None:
        """Fire time of the earliest live event, or ``None`` when idle."""
        while self._heap and self._heap[0][3].callback is None:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def run_until(self, deadline_us: float) -> int:
        """Fire every event due at or before ``deadline_us``; returns count.

        The clock lands exactly on ``deadline_us`` afterwards (or stays
        put if the deadline is in the past).
        """
        fired = 0
        while True:
            next_us = self.peek_next_us()
            if next_us is None or next_us > deadline_us:
                break
            handle = heapq.heappop(self._heap)[3]
            callback, handle.callback = handle.callback, None
            self._pending -= 1
            self._now_us = next_us
            fired += 1
            callback(*handle.args)
        if deadline_us > self._now_us:
            self._now_us = deadline_us
        return fired

    def run_until_idle(self) -> int:
        """Drain the heap completely (callbacks may keep extending it)."""
        fired = 0
        while True:
            next_us = self.peek_next_us()
            if next_us is None:
                return fired
            fired += self.run_until(next_us)


__all__ = ["ARRIVAL", "COMPLETION", "ReactorHandle", "VirtualReactor"]
