"""The untrusted durable store the recovery plane seals state into.

Models the SP-side disk (or cloud bucket) that survives a Hypervisor
crash.  It is *untrusted* in exactly the ORAM-server sense: it returns
whatever it wants — stale snapshots, missing records — and the trusted
side defends itself with AEAD sealing (confidentiality + integrity per
record) and the device's hardware monotonic counter (freshness of the
store as a whole).  ``snapshot``/``restore`` exist so tests and the
bench can *be* the malicious SP and roll the store back.
"""

from __future__ import annotations


class DurableStore:
    """A durable key → sealed-blob map on untrusted SP storage."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def put(self, key: str, blob: bytes) -> None:
        self._blobs[key] = bytes(blob)

    def get(self, key: str) -> bytes | None:
        return self._blobs.get(key)

    def delete(self, key: str) -> None:
        self._blobs.pop(key, None)

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._blobs if k.startswith(prefix))

    def total_bytes(self) -> int:
        return sum(len(blob) for blob in self._blobs.values())

    # -- adversary modelling -------------------------------------------

    def snapshot(self) -> dict[str, bytes]:
        """What a malicious SP squirrels away for a later rollback."""
        return dict(self._blobs)

    def restore(self, snapshot: dict[str, bytes]) -> None:
        """Roll the whole store back to an earlier snapshot (attack)."""
        self._blobs = dict(snapshot)


__all__ = ["DurableStore"]
