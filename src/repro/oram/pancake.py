"""A PANCAKE-style frequency-smoothed store (Grubbs et al., sub-oblivious).

The paper (§IV-D) considers PANCAKE [24] and Waffle [31] as cheaper
alternatives to ORAM: they *smooth* the observed access distribution
instead of hiding it, assuming a known, static query distribution.  The
paper rejects them because "they are not designed against an *active*
adversary who can send requests to interfere with the distribution,
which is in our threat model."

This module implements the PANCAKE core so that claim can be tested
empirically (see ``benchmarks/bench_baseline_pancake.py``):

* each key ``k`` with assumed probability ``π(k)`` gets
  ``R(k) = ceil(π(k) / α)`` replicas (α = the smoothing quantum), so
  a *correctly calibrated* store serves every replica at the same rate;
* every real query is padded into a batch of ``B`` physical accesses —
  one to a uniformly chosen replica of ``k``, the rest fake accesses
  drawn replica-uniformly.

When the true distribution matches the calibration, the observed trace
is uniform over replicas and frequency analysis fails.  When an
adversary (or simply a shifting workload) moves the distribution, the
over-queried key's replicas run hot and identification succeeds — the
weakness Path ORAM does not have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.kdf import Drbg
from repro.crypto.suite import AcceleratedAesGcmAead

BATCH_SIZE = 3  # PANCAKE's query batching factor


@dataclass
class SmoothedAccessEvent:
    """What the SP sees: a stable per-replica handle."""

    op_index: int
    handle: bytes
    sim_time_us: float


class FrequencySmoothedStore:
    """Encrypted store with replica-based frequency smoothing."""

    def __init__(
        self,
        key: bytes,
        assumed_distribution: dict[bytes, float],
        rng: Drbg | None = None,
    ) -> None:
        if not assumed_distribution:
            raise ValueError("need a non-empty assumed distribution")
        total = sum(assumed_distribution.values())
        if total <= 0:
            raise ValueError("distribution must have positive mass")
        self._rng = rng or Drbg(key, personalization=b"pancake")
        self._cipher = AcceleratedAesGcmAead(key)
        self.batch_size = BATCH_SIZE
        # Smoothing quantum: the smallest assumed probability.
        normalized = {
            k: p / total for k, p in assumed_distribution.items() if p > 0
        }
        alpha = min(normalized.values())
        self._replicas: dict[bytes, list[bytes]] = {}
        self._all_replicas: list[bytes] = []
        for plain_key, probability in normalized.items():
            count = max(1, math.ceil(probability / alpha))
            handles = [
                self._handle(plain_key, replica) for replica in range(count)
            ]
            self._replicas[plain_key] = handles
            self._all_replicas.extend(handles)
        self._data: dict[bytes, bytes] = {}
        self._nonce = 0
        self.trace: list[SmoothedAccessEvent] = []
        self._op_index = 0

    def _handle(self, plain_key: bytes, replica: int) -> bytes:
        import hashlib

        return hashlib.blake2b(
            plain_key + replica.to_bytes(4, "big"), digest_size=16
        ).digest()

    def replica_count(self, plain_key: bytes) -> int:
        return len(self._replicas[plain_key])

    def replicas_of(self, plain_key: bytes) -> list[bytes]:
        return list(self._replicas[plain_key])

    # ------------------------------------------------------------------
    # Access protocol
    # ------------------------------------------------------------------

    def _record(self, handle: bytes, sim_time_us: float) -> None:
        self.trace.append(SmoothedAccessEvent(self._op_index, handle, sim_time_us))
        self._op_index += 1

    def _touch_fake(self, sim_time_us: float) -> None:
        index = self._rng.randint(len(self._all_replicas))
        self._record(self._all_replicas[index], sim_time_us)

    def put(self, plain_key: bytes, value: bytes, sim_time_us: float = 0.0) -> None:
        """Write ``value`` to every replica of ``plain_key``."""
        if plain_key not in self._replicas:
            raise KeyError("key not in the calibrated key space")
        self._nonce += 1
        nonce = self._nonce.to_bytes(12, "big")
        sealed = nonce + self._cipher.encrypt(nonce, value)
        for handle in self._replicas[plain_key]:
            self._data[handle] = sealed
        # Writes are batched/padded like reads.
        self._record(self._replicas[plain_key][0], sim_time_us)
        for _ in range(self.batch_size - 1):
            self._touch_fake(sim_time_us)

    def get(self, plain_key: bytes, sim_time_us: float = 0.0) -> bytes | None:
        """One smoothed read: a batch of ``batch_size`` physical accesses."""
        if plain_key not in self._replicas:
            raise KeyError("key not in the calibrated key space")
        handles = self._replicas[plain_key]
        chosen = handles[self._rng.randint(len(handles))]
        self._record(chosen, sim_time_us)
        for _ in range(self.batch_size - 1):
            self._touch_fake(sim_time_us)
        sealed = self._data.get(chosen)
        if sealed is None:
            return None
        return self._cipher.decrypt(sealed[:12], sealed[12:])

    # ------------------------------------------------------------------
    # Introspection for the attack experiments
    # ------------------------------------------------------------------

    @property
    def total_replicas(self) -> int:
        return len(self._all_replicas)

    def observed_counts(self) -> dict[bytes, int]:
        counts: dict[bytes, int] = {}
        for event in self.trace:
            counts[event.handle] = counts.get(event.handle, 0) + 1
        return counts


def rate_deviation_attack(
    observed_counts: dict[bytes, int],
    total_replicas: int,
    threshold: float = 1.5,
) -> set[bytes]:
    """The distribution-shift attack on frequency smoothing.

    A correctly calibrated smoothed store serves every replica at rate
    ``total_accesses / total_replicas``.  Replicas observed at more than
    ``threshold`` times that rate betray keys whose *true* query rate
    exceeds the calibration — exactly what an active adversary induces
    (or detects) by shifting the workload.  Returns the hot handles.
    """
    total = sum(observed_counts.values())
    if total == 0 or total_replicas == 0:
        return set()
    expected = total / total_replicas
    return {
        handle
        for handle, count in observed_counts.items()
        if count > threshold * expected
    }
