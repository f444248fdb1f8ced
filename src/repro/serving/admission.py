"""Pluggable admission control for the gateway front door.

Overload must degrade gracefully: instead of the pre-serving behaviour
(`pick_device` raising on a full fleet), every submission is either
admitted into the bounded queue or rejected with a *typed reason* the
client can act on — retry elsewhere (queue full, shed) or reduce
concurrency (in-flight cap).  The gateway's own bounds come first; one
optional policy sees the request after them.
"""

from __future__ import annotations

from typing import Protocol, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.gateway import Gateway, GatewayRequest


class RejectReason:
    """Typed reasons a submission bounces at the front door."""

    QUEUE_FULL = "queue-full"                   # the gateway's bounded queue
    SESSION_LIMIT = "session-in-flight-limit"   # per-session outstanding cap
    SHED_QUEUE_DEPTH = "shed-queue-depth"       # load shedding threshold
    QUARANTINED_CAPACITY = "quarantined-capacity"  # shed: devices quarantined

    ALL = (
        QUEUE_FULL,
        SESSION_LIMIT,
        SHED_QUEUE_DEPTH,
        QUARANTINED_CAPACITY,
    )


class AdmissionPolicy(Protocol):
    """The gateway's optional admission stage.

    Returns ``None`` to admit or a :class:`RejectReason` constant to
    reject; it may consult the gateway's load view (``queue_depth``,
    ``in_flight``, ``session_load``, ``now_us``).
    """

    def admit(self, request: "GatewayRequest", gateway: "Gateway") -> str | None:
        ...  # pragma: no cover - protocol


class QueueDepthShedPolicy:
    """Shed early, before the hard queue bound, so overload degrades.

    A gateway whose queue only rejects when *full* serves every admitted
    request with the worst possible wait; shedding at a lower watermark
    trades a higher reject rate for bounded queueing delay.
    """

    def __init__(self, shed_depth: int) -> None:
        if shed_depth < 1:
            raise ValueError("need shed_depth >= 1")
        self.shed_depth = shed_depth

    def admit(self, request: "GatewayRequest", gateway: "Gateway") -> str | None:
        if gateway.queue_depth >= self.shed_depth:
            return RejectReason.SHED_QUEUE_DEPTH
        return None
