"""Non-oblivious encrypted K-V store: the strawman the paper rules out.

Section I argues that "simply encrypting the queries is not enough,
because when new blocks are broadcasted to the entire network in
plaintext, the adversary can map the ciphertext keys to their plaintext
using their accumulated frequency of co-occurrence."  This store is that
strawman: deterministic per-key handles (so lookups work) over encrypted
values.  The security benchmarks run a frequency-analysis attack against
it and show it succeeds, while the same attack against the Path ORAM
store is at chance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.suite import AcceleratedAesGcmAead


@dataclass(slots=True)
class StoreAccessEvent:
    """What the SP sees: an opaque but *stable* handle per key."""

    op_index: int
    handle: bytes
    sim_time_us: float


@dataclass
class EncryptedStoreTrace:
    events: list[StoreAccessEvent] = field(default_factory=list)


class EncryptedKvStore:
    """Encrypted values, deterministic handles, no access-pattern hiding."""

    def __init__(self, key: bytes) -> None:
        self._handle_key = hashlib.blake2b(key, digest_size=32, person=b"handlederiv").digest()
        self._cipher = AcceleratedAesGcmAead(key)
        self._data: dict[bytes, bytes] = {}
        self._nonce = 0
        self.trace = EncryptedStoreTrace()
        self._op_index = 0

    def _handle(self, plain_key: bytes) -> bytes:
        return hashlib.blake2b(plain_key, key=self._handle_key, digest_size=16).digest()

    def _record(self, handle: bytes, sim_time_us: float) -> None:
        self.trace.events.append(StoreAccessEvent(self._op_index, handle, sim_time_us))
        self._op_index += 1

    def put(self, plain_key: bytes, value: bytes, sim_time_us: float = 0.0) -> None:
        handle = self._handle(plain_key)
        self._record(handle, sim_time_us)
        self._nonce += 1
        nonce = self._nonce.to_bytes(12, "big")
        self._data[handle] = nonce + self._cipher.encrypt(nonce, value)

    def get(self, plain_key: bytes, sim_time_us: float = 0.0) -> bytes | None:
        handle = self._handle(plain_key)
        self._record(handle, sim_time_us)
        blob = self._data.get(handle)
        if blob is None:
            return None
        return self._cipher.decrypt(blob[:12], blob[12:])
