"""The session lifecycle: its states and its legal edges, declared once.

The serving tier's per-session record (``AsyncSession``) walks these
edges; :func:`device_holds` says which of them reach the
device, where :class:`~repro.hypervisor.hypervisor.Hypervisor` has one
primitive for a session entering and one for a session leaving, and the
recovery record set follows both (ARCHITECTURE, *Async serving plane*,
has the edge-by-edge table)::

    HANDSHAKING ──► ACTIVE ──► SUSPENDED ──► RESUMED ──► ACTIVE …
         │             │         │    │         │
         │             │         │    └──► HANDSHAKING   (stale ticket)
         └─────────────┴─────────┴──────────────┴──► CLOSED

A hypervisor crash is not an edge a session takes (``Hypervisor._leave``).
"""

from __future__ import annotations


class SessionState:
    HANDSHAKING = "handshaking"   # full attestation + DHKE in flight
    ACTIVE = "active"
    SUSPENDED = "suspended"       # evicted into a ticket: costs the device nothing
    RESUMED = "resumed"           # ticket redemption in flight
    CLOSED = "closed"


EDGES: dict[str, frozenset[str]] = {
    SessionState.HANDSHAKING: frozenset(
        {SessionState.ACTIVE, SessionState.CLOSED}
    ),
    SessionState.ACTIVE: frozenset(
        {SessionState.SUSPENDED, SessionState.CLOSED}
    ),
    SessionState.SUSPENDED: frozenset(
        # RESUMED via ticket; HANDSHAKING is the stale-ticket fallback.
        {SessionState.RESUMED, SessionState.HANDSHAKING, SessionState.CLOSED}
    ),
    SessionState.RESUMED: frozenset(
        {SessionState.ACTIVE, SessionState.CLOSED}
    ),
    SessionState.CLOSED: frozenset(),
}


def device_holds(state: str) -> bool:
    """Does a session in ``state`` occupy the device — channel keys and
    one recovery record?  (A handshake runs at the *start* of its
    in-flight state; a ticket dies with its epoch or first redemption.)"""
    return state in (
        SessionState.HANDSHAKING, SessionState.ACTIVE, SessionState.RESUMED
    )


class InvalidSessionTransition(Exception):
    """An edge the lifecycle forbids — a caller's bug, never load-dependent."""

    def __init__(self, routing_id: bytes, src: str, dst: str) -> None:
        super().__init__(
            f"session {routing_id.hex()[:16]}: illegal transition "
            f"{src} -> {dst}"
        )
        self.routing_id = routing_id
        self.src = src
        self.dst = dst
