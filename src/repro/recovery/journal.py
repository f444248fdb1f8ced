"""Write-ahead journal records and their replay semantics.

Five record kinds, each an *absolute* assignment over the checkpointed
:class:`~repro.recovery.state.TrustedState`:

* ``lease`` — a write-ahead nonce lease: "nonces up to N may be on the
  wire".  Written *before* the ORAM client seals anything with them, so
  a crash mid-access can never lead the successor to reuse a nonce the
  SP has already seen ciphertext under.
* ``access`` — the trusted-state delta of one completed ORAM access:
  the changed stash entries (``None`` = removed), changed positions,
  the path's new node versions, and the post-access nonce counter.
* ``session`` — session metadata upsert (re-join target after restart).
* ``session_end`` — the session left the device by suspend or close:
  its metadata is removed, so the next checkpoint does not carry it.
* ``root`` — the Merkle root block sync just verified.

Replay is **idempotent by construction**: every field a record touches
is set to an absolute value (present or absent, for a session; or
``max``-ed, for the lease watermark), so applying any prefix twice
equals applying it once — the property test in
``tests/property/test_prop_journal_replay.py`` hammers exactly this,
because a recovery that double-applies a record after an ill-timed
crash must be harmless.  Read back from SP storage, anything but the
canonical encoding of a well-formed record is a
:class:`RecoveryIntegrityError`.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.recovery.state import (
    MALFORMED,
    RecoveryIntegrityError,
    SessionRecord,
    TrustedState,
    decode_canonical,
)

LEASE = "lease"
ACCESS = "access"
SESSION = "session"
SESSION_END = "session_end"
ROOT = "root"

KINDS = (LEASE, ACCESS, SESSION, SESSION_END, ROOT)


def encode_record(kind: str, payload: dict) -> bytes:
    if kind not in KINDS:
        raise ValueError(f"unknown journal record kind {kind!r}")
    return json.dumps(
        {"kind": kind, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()


def decode_record(data: bytes) -> tuple[str, dict]:
    """Inverse of :func:`encode_record`, and of nothing else."""
    return decode_canonical(
        data, "journal record",
        lambda obj: (obj["kind"], dict(obj["payload"])),
        lambda record: encode_record(*record),
    )


# ----------------------------------------------------------------------
# Payload builders (trusted side, at journaling time)
# ----------------------------------------------------------------------


def lease_payload(until: int) -> dict:
    return {"until": until}


def access_payload(
    stash: dict[bytes, bytes | None],
    positions: dict[bytes, int | None],
    versions: dict[int, int],
    nonce_counter: int,
) -> dict:
    return {
        "stash": {
            k.hex(): (v.hex() if v is not None else None)
            for k, v in stash.items()
        },
        "positions": {k.hex(): v for k, v in positions.items()},
        "versions": {str(node): v for node, v in versions.items()},
        "nonce": nonce_counter,
    }


def session_payload(record: SessionRecord) -> dict:
    return record.to_obj()


def session_end_payload(session_id: bytes) -> dict:
    return {"session_id": session_id.hex()}


def root_payload(state_root: bytes) -> dict:
    return {"root": state_root.hex()}


# ----------------------------------------------------------------------
# Replay (recovery side)
# ----------------------------------------------------------------------


def apply_record(state: TrustedState, kind: str, payload: dict) -> None:
    """Apply one record; absolute semantics make re-application a no-op.
    A payload of the wrong shape refuses the boot (so a half-applied
    record is never used)."""
    try:
        if kind == LEASE:
            state.leased_until = max(state.leased_until, int(payload["until"]))
        elif kind == ACCESS:
            for key_hex, value_hex in payload["stash"].items():
                key = bytes.fromhex(key_hex)
                if value_hex is None:
                    state.stash.pop(key, None)
                else:
                    state.stash[key] = bytes.fromhex(value_hex)
            for key_hex, leaf in payload["positions"].items():
                key = bytes.fromhex(key_hex)
                if leaf is None:
                    state.positions.pop(key, None)
                else:
                    state.positions[key] = int(leaf)
            for node, version in payload["versions"].items():
                state.node_versions[int(node)] = int(version)
            state.nonce_counter = int(payload["nonce"])
        elif kind == SESSION:
            record = SessionRecord.from_obj(payload)
            state.sessions[record.session_id.hex()] = record
        elif kind == SESSION_END:
            state.sessions.pop(bytes.fromhex(payload["session_id"]).hex(), None)
        elif kind == ROOT:
            state.sync_root = bytes.fromhex(payload["root"])
        else:
            raise ValueError("unknown record kind")
    except MALFORMED as error:
        raise RecoveryIntegrityError(
            f"malformed {kind!r} journal record: {error!r}"
        ) from error


def replay(state: TrustedState, records: Iterable[tuple[str, dict]]) -> TrustedState:
    """Apply ``records`` in order; returns ``state`` for chaining.

    After replay the nonce counter is clamped up to the lease watermark:
    a crash may have burned leased nonces the access record never
    confirmed, and burning the rest of the lease is always safe while
    reuse never is.
    """
    for kind, payload in records:
        apply_record(state, kind, payload)
    state.nonce_counter = max(state.nonce_counter, state.leased_until)
    return state


__all__ = [
    "ACCESS",
    "KINDS",
    "LEASE",
    "ROOT",
    "SESSION",
    "SESSION_END",
    "access_payload",
    "apply_record",
    "decode_record",
    "encode_record",
    "lease_payload",
    "replay",
    "root_payload",
    "session_end_payload",
    "session_payload",
]
