"""The checkpointed trusted state and its deterministic encoding.

A :class:`TrustedState` is everything the Hypervisor must carry across a
cold restart to come back *the same deployment*: the ORAM client's stash
and position map, the per-node anti-rollback version pins, the AEAD
nonce counter (plus the write-ahead lease watermark), the shared ORAM
key, session *metadata*, and the last Merkle root block sync verified.

Session metadata deliberately excludes channel AES keys: the channels
are forward-secret (fresh DHKE per session), so a checkpoint that could
resurrect them would be the vulnerability, not the feature.  Recovery
re-runs attestation + DHKE instead; the metadata records who the devices
held — a suspended or closed session has no record, so the state is
O(live sessions), not O(sessions ever opened).

Encoding is deterministic JSON (sorted keys, fixed separators, bytes as
hex) so identical states seal to identical plaintexts — the property the
journal-replay idempotence tests assert on — and the only form decoded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class RecoveryIntegrityError(Exception):
    """The durable store failed recovery-time verification.

    Missing checkpoint, a journal gap, a record that does not unseal or
    is not one, or — the attack this plane exists for — a store whose
    newest record is older than the device's hardware monotonic counter
    (the SP rolled back checkpoint and journal together).
    """


# What walking hostile JSON as if it were a well-formed record can raise.
MALFORMED = (
    ValueError, TypeError, LookupError, AttributeError, ArithmeticError, RecursionError
)


def decode_canonical(data: bytes, what: str, from_obj, encode):
    """``from_obj(json.loads(data))`` when ``data`` is exactly ``encode``
    of it; :class:`RecoveryIntegrityError` for anything else — not JSON,
    a missing or mistyped field, a second spelling of a valid value."""
    try:
        value = from_obj(json.loads(data.decode()))
        if encode(value) == data:
            return value
        problem = "is not in canonical form"
    except MALFORMED as error:
        problem = f"does not decode: {error!r}"
    raise RecoveryIntegrityError(f"{what} {problem}")


def _hex_map(mapping: dict[bytes, bytes]) -> dict[str, str]:
    return {k.hex(): v.hex() for k, v in mapping.items()}


@dataclass
class SessionRecord:
    """Who held a session (re-join target), never the channel key."""

    session_id: bytes
    user_public: bytes       # serialized user session public key
    device_index: int
    established_at_us: float

    def to_obj(self) -> dict:
        return {
            "session_id": self.session_id.hex(),
            "user_public": self.user_public.hex(),
            "device_index": self.device_index,
            "established_at_us": float(self.established_at_us),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "SessionRecord":
        return cls(
            session_id=bytes.fromhex(obj["session_id"]),
            user_public=bytes.fromhex(obj["user_public"]),
            device_index=int(obj["device_index"]),
            established_at_us=float(obj["established_at_us"]),
        )


@dataclass
class TrustedState:
    """The recoverable trusted state of one deployment."""

    stash: dict[bytes, bytes] = field(default_factory=dict)
    positions: dict[bytes, int] = field(default_factory=dict)
    node_versions: dict[int, int] = field(default_factory=dict)
    nonce_counter: int = 0
    leased_until: int = 0             # write-ahead nonce lease watermark
    oram_key: bytes = b""
    block_size: int = 1024
    sessions: dict[str, SessionRecord] = field(default_factory=dict)
    sync_root: bytes | None = None

    def encode(self) -> bytes:
        obj = {
            "stash": _hex_map(self.stash),
            "positions": {k.hex(): v for k, v in self.positions.items()},
            "node_versions": {str(k): v for k, v in self.node_versions.items()},
            "nonce_counter": self.nonce_counter,
            "leased_until": self.leased_until,
            "oram_key": self.oram_key.hex(),
            "block_size": self.block_size,
            "sessions": {
                sid: record.to_obj() for sid, record in self.sessions.items()
            },
            "sync_root": self.sync_root.hex() if self.sync_root else None,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()

    @classmethod
    def decode(cls, data: bytes) -> "TrustedState":
        """Inverse of :meth:`encode`, and of nothing else."""
        return decode_canonical(data, "checkpoint", cls._from_obj, cls.encode)

    @classmethod
    def _from_obj(cls, obj: dict) -> "TrustedState":
        return cls(
            stash={
                bytes.fromhex(k): bytes.fromhex(v)
                for k, v in obj["stash"].items()
            },
            positions={
                bytes.fromhex(k): int(v) for k, v in obj["positions"].items()
            },
            node_versions={
                int(k): int(v) for k, v in obj["node_versions"].items()
            },
            nonce_counter=int(obj["nonce_counter"]),
            leased_until=int(obj["leased_until"]),
            oram_key=bytes.fromhex(obj["oram_key"]),
            block_size=int(obj["block_size"]),
            sessions={
                sid: SessionRecord.from_obj(rec)
                for sid, rec in obj["sessions"].items()
            },
            sync_root=(
                bytes.fromhex(obj["sync_root"]) if obj["sync_root"] else None
            ),
        )


__all__ = [
    "MALFORMED", "RecoveryIntegrityError", "SessionRecord", "TrustedState",
    "decode_canonical",
]
