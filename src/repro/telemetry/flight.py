"""Per-session flight recorder: bounded rings, sealed dumps on failure.

An aircraft-style black box for the serving planes: every session gets a
bounded ring buffer of its most recent observability entries (point
events from the tier, the gateway and the quarantine policy).  Recording
is pure bookkeeping — no clock access, no metric mutation — so an armed
recorder is byte-invisible to the simulation; the obs-bench identity
gate hashes exactly that.

When a request terminates with one of the typed failures the planes
treat as terminal (:class:`~repro.faults.errors.BundleFailedError`,
:class:`~repro.hypervisor.resumption.StaleTicketError` and the
receipt-audit verdicts), the recorder *seals* the session's ring into
an immutable :class:`SealedDump` with a sha256 digest over its
canonical JSON — deterministic down to the byte for a seeded run, so
two identical runs produce identical dumps (property-tested).  Trigger
matching is by exception *type name* so this module never imports the
fault/hypervisor/audit planes it observes.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field

#: Typed failures that seal a dump.  Names, not classes: the recorder
#: sits below every plane it observes and must not import them.
#: The receipt-audit trio are Byzantine verdicts (a device provably
#: lied or every failover target is gone) — exactly the moments an
#: operator wants the last seconds of session history preserved.
SEAL_CAUSES = frozenset(
    {
        "BundleFailedError",
        "StaleTicketError",
        "ReceiptMismatchError",
        "ReceiptMissingError",
        "QuarantinedDeviceError",
    }
)


@dataclass(frozen=True, slots=True)
class FlightEntry:
    """One ring slot; every plane writes ``kind="event"`` today."""

    kind: str
    name: str
    at_us: float
    data: tuple[tuple[str, object], ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "at_us": self.at_us,
            "data": {key: _jsonable(value) for key, value in self.data},
        }


def _jsonable(value: object) -> object:
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class SealedDump:
    """An immutable snapshot of one session's ring at failure time."""

    session_id: str
    cause_type: str
    reason: str
    sealed_at_us: float
    sequence: int
    entries: tuple[FlightEntry, ...]
    digest: str = field(default="", compare=False)

    def canonical_json(self) -> str:
        return json.dumps(
            {
                "session_id": self.session_id,
                "cause_type": self.cause_type,
                "reason": self.reason,
                "sealed_at_us": self.sealed_at_us,
                "sequence": self.sequence,
                "entries": [entry.to_dict() for entry in self.entries],
            },
            sort_keys=True,
            separators=(",", ":"),
        )


class FlightRecorder:
    """Bounded per-session rings; ``seal`` freezes one into a dump.

    ``capacity`` bounds each session's ring (oldest entries fall off),
    so memory is O(sessions * capacity) regardless of run length.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"flight ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rings: dict[str, deque[FlightEntry]] = {}
        self.dumps: list[SealedDump] = []

    @staticmethod
    def _session_key(session_id: object) -> str:
        if isinstance(session_id, bytes):
            return session_id.hex()
        return str(session_id)

    def _ring(self, session_id: object) -> deque:
        key = self._session_key(session_id)
        ring = self._rings.get(key)
        if ring is None:
            ring = self._rings[key] = deque(maxlen=self.capacity)
        return ring

    # -- recording ------------------------------------------------------

    def note(
        self,
        session_id: object,
        kind: str,
        name: str,
        at_us: float,
        /,
        **data: object,
    ) -> None:
        """Append one entry to the session's ring (no side effects).

        The header parameters are positional-only so ``data`` may carry
        attribute keys named ``kind``/``name`` without colliding.
        """
        self._ring(session_id).append(
            FlightEntry(
                kind=kind,
                name=name,
                at_us=at_us,
                data=tuple(sorted(data.items())),
            )
        )

    # -- sealing --------------------------------------------------------

    @staticmethod
    def should_seal(cause_type: str) -> bool:
        """Is this typed failure one that triggers a sealed dump?"""
        return cause_type in SEAL_CAUSES

    def seal(
        self,
        session_id: object,
        cause_type: str,
        reason: str,
        at_us: float,
    ) -> SealedDump:
        """Freeze the session's ring into a dump (ring keeps recording)."""
        entries = tuple(self._ring(session_id))
        dump = SealedDump(
            session_id=self._session_key(session_id),
            cause_type=cause_type,
            reason=reason,
            sealed_at_us=at_us,
            sequence=len(self.dumps),
            entries=entries,
        )
        digest = hashlib.sha256(dump.canonical_json().encode()).hexdigest()
        object.__setattr__(dump, "digest", digest)
        self.dumps.append(dump)
        return dump

    def seal_if_triggered(
        self,
        session_id: object,
        cause_type: str,
        reason: str,
        at_us: float,
    ) -> SealedDump | None:
        """``seal`` iff ``cause_type`` is a registered trigger."""
        if not self.should_seal(cause_type):
            return None
        return self.seal(session_id, cause_type, reason, at_us)

    # -- inspection -----------------------------------------------------

    def ring_of(self, session_id: object) -> tuple[FlightEntry, ...]:
        return tuple(self._rings.get(self._session_key(session_id), ()))

    @property
    def session_count(self) -> int:
        return len(self._rings)

    def dump_digests(self) -> list[str]:
        """Digests in seal order — the determinism-gate fingerprint."""
        return [dump.digest for dump in self.dumps]


__all__ = [
    "SEAL_CAUSES",
    "FlightEntry",
    "FlightRecorder",
    "SealedDump",
]
