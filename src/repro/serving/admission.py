"""Typed reasons a submission bounces at the gateway's front door.

Overload must degrade gracefully: instead of the pre-serving behaviour
(`pick_device` raising on a full fleet), every submission is either
admitted into the bounded queue or rejected with a *typed reason* the
client can act on — retry elsewhere (queue full, shed) or reduce
concurrency (in-flight cap).  ``Gateway._admission_reason`` checks the
bounds in ``GatewayConfig``; this module names what it returns.
"""

from __future__ import annotations


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
