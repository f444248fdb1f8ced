"""Typed, composable recovery policies over the fault plane's errors.

The building blocks, each deterministic in virtual time, that
:class:`~repro.serving.gateway.ServiceExecutor` applies in its one
attempt loop (breaker → attempt → retryable? else supervisor →
backoff → failover):

* :class:`RetryPolicy` — how many attempts a bundle gets and how long
  (virtual µs, exponential) to back off between them.  Retrying is safe
  by construction: pre-execution runs on a journaled overlay that is
  never committed, a failed channel ``open`` never consumes the nonce,
  and a failed ORAM access leaves the client untouched.
* :class:`CircuitBreaker` — per-device failure counting; a device that
  keeps failing is held *open* for a cool-down window so retries go
  elsewhere instead of hammering a sick component.
* :class:`FailoverBundle` — the payload that lets a bundle **fail
  over** to another device the tenant holds a session on, or follow a
  session that was re-joined after a restart.
* :class:`QuarantinePolicy` — isolate a provably lying device, repair
  shared trust state, heal the victim bundle elsewhere.

Every error the policies recover from is typed (see
:mod:`repro.faults.errors`); anything untyped propagates loudly — an
unexpected exception is a bug, not a fault to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.crypto.suite import AuthenticationError
from repro.faults.errors import (
    CircuitOpenError,
    DmaDropError,
    FailedOverError,
    HevmCrashError,
    QuarantinedDeviceError,
)
from repro.hypervisor.channel import ChannelError
from repro.oram.client import OramTimeoutError

# The transient, retry-safe failures.  Deliberate-tamper signals that
# retrying cannot fix (SyncError from a forged proof chain,
# AttestationError, UnknownSessionError) are intentionally absent — as
# is the resumption plane's StaleTicketError: a ticket minted before a
# hypervisor restart names secrets that were scrubbed for good, so the
# only correct reaction is a fresh full handshake, never a retry
# (gated in bench_c10k and tests/integration/test_async_resumption.py).
RECOVERABLE_ERRORS: tuple[type[Exception], ...] = (
    ChannelError,          # corrupted/duplicated DMA message (tag/sig/replay)
    DmaDropError,          # DMA message lost in transit
    HevmCrashError,        # core died mid-bundle; scrubbed and released
    OramTimeoutError,      # storage server stalled past the budget
    AuthenticationError,   # one tampered AEAD blob (transient read corruption)
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff in virtual time: the wait
    doubles after each failure."""

    max_attempts: int = 3
    backoff_us: float = 200.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.backoff_us < 0:
            raise ValueError("backoff must be non-negative")

    def is_recoverable(self, error: Exception) -> bool:
        return isinstance(error, RECOVERABLE_ERRORS)

    def backoff_for(self, failures: int) -> float:
        """Backoff after the ``failures``-th failure (1-based)."""
        return self.backoff_us * 2.0 ** (failures - 1)


class CircuitBreaker:
    """Count failures per target; hold the target open past a threshold.

    Closed → open after ``failure_threshold`` consecutive failures; open
    rejects with :class:`CircuitOpenError` until the cool-down window of
    virtual time passes, then one trial call is let through (half-open):
    success closes the breaker *and* resets the window to its base;
    a failed trial re-opens it with a **doubled** window (capped at
    eight times the base), so a persistently sick device backs off
    geometrically instead of getting probed at a fixed cadence.
    """

    def __init__(
        self,
        target: str,
        failure_threshold: int = 5,
        reset_after_us: float = 1_000_000.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("need failure_threshold >= 1")
        if reset_after_us < 0:
            raise ValueError("need reset_after_us >= 0")
        self.target = target
        self.failure_threshold = failure_threshold
        self.reset_after_us = reset_after_us
        self.max_reset_us = reset_after_us * 8.0
        self._current_reset_us = reset_after_us
        self._consecutive_failures = 0
        self._open_until_us: float | None = None
        self._half_open = False

    @property
    def is_open(self) -> bool:
        return self._open_until_us is not None

    @property
    def current_reset_us(self) -> float:
        """The cool-down the *next* open (or re-open) will use."""
        return self._current_reset_us

    def allow(self, now_us: float) -> None:
        """Raise :class:`CircuitOpenError` while the cool-down holds."""
        if self._open_until_us is None:
            return
        if now_us < self._open_until_us:
            raise CircuitOpenError(self.target, self._open_until_us)
        # Window elapsed: this call is the half-open trial.
        self._half_open = True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._open_until_us = None
        self._half_open = False
        self._current_reset_us = self.reset_after_us

    def record_failure(self, now_us: float) -> None:
        if self._half_open:
            # The trial call failed: re-open immediately with a doubled
            # (capped) window — don't wait for the threshold again.
            self._half_open = False
            self._current_reset_us = min(
                self._current_reset_us * 2.0, self.max_reset_us
            )
            self._open_until_us = now_us + self._current_reset_us
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._open_until_us = now_us + self._current_reset_us


@dataclass
class RecoveryOutcome:
    """What recovery did for one bundle (attached to the gateway request)."""

    attempts: int = 0
    retries: int = 0
    backoff_us: float = 0.0
    recovered_errors: list[str] = field(default_factory=list)
    failover: FailedOverError | None = None

    @property
    def recovered(self) -> bool:
        """Did this bundle need (and survive) any recovery at all?"""
        return bool(self.recovered_errors)


class FailoverBundle:
    """A payload a tenant can run on any device it holds a session on.

    Gateway payloads are normally bound to one session/device; failover
    needs the *bundle* to be re-sealable for another device's channel.
    A tenant that attested sessions on several devices wraps them here;
    ``seal_for`` seals the encoded bundle late (at attempt time) so the
    per-channel nonces stay strictly increasing across retries.

    ``sessions`` (device index → session) is read live, never copied:
    a tenant that re-joins after a Hypervisor restart, or resumes from
    a ticket, replaces its entry in place, and the next attempt seals
    for the session the device actually knows.
    """

    def __init__(
        self, sessions: Mapping[int, object], encoded_bundle: bytes
    ) -> None:
        if not sessions:
            raise ValueError("need at least one device session")
        self._sessions = sessions
        self._encoded = encoded_bundle

    @property
    def device_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self._sessions))

    def session_for(self, device_index: int) -> bytes:
        return self._sessions[device_index].session_id

    def seal_for(self, device_index: int):
        session = self._sessions[device_index]
        if session.device.hypervisor.features.encryption:
            return session.channel.seal(self._encoded)
        return self._encoded

    def open_with(self, device_index: int, sealed_out):
        """Open a trace report produced by ``device_index``'s channel."""
        session = self._sessions[device_index]
        if session.device.hypervisor.features.encryption:
            return session.channel.open(sealed_out)
        return sealed_out


class QuarantinePolicy:
    """Trust-but-verify enforcement: isolate provably lying devices.

    A failed receipt audit is not a transient fault — it is evidence.
    The policy's response, in order: **quarantine** the device (set
    membership, metrics, flight-recorder seal), **repair** shared trust
    state if the lie was an equivocated sync (full update replay via
    ``service.repair_sync``), and **heal** the victim bundle by
    re-executing it on a healthy device the tenant holds a session on.
    Only ``heal`` steers by the set: the gateway and the service
    executor never consult it, so whoever holds the policy decides
    where traffic goes while a device is quarantined (``receipt-bench``
    heals every caught lie, then releases the device).

    Deterministic and metrics-only on the happy path: a policy
    with nothing quarantined touches neither clock nor randomness, so
    clean runs stay byte-identical.
    """

    def __init__(self, service, metrics=None, flight=None) -> None:
        self.service = service
        self._metrics = metrics
        self._flight = flight
        self.quarantined: set[int] = set()
        self.heals = 0
        self.resyncs = 0

    # -- state transitions ----------------------------------------------

    def _set_gauge(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("quarantine.devices").set(
                len(self.quarantined)
            )

    def quarantine(
        self, device_index: int, cause: Exception, *, session_id=None
    ) -> bool:
        """Isolate ``device_index``; returns False if already isolated."""
        if device_index in self.quarantined:
            return False
        now_us = self.service.clock.now_us
        self.quarantined.add(device_index)
        cause_name = type(cause).__name__
        if self._metrics is not None:
            self._metrics.counter("quarantine.quarantined").inc()
            self._metrics.counter(
                "quarantine.quarantined",
                device=str(device_index),
                cause=cause_name,
            ).inc()
        self._set_gauge()
        if self._flight is not None and session_id is not None:
            self._flight.note(
                session_id, "event", "quarantine.quarantined", now_us,
                device=device_index, cause=cause_name,
            )
            self._flight.seal_if_triggered(
                session_id, cause_name, str(cause), now_us
            )
        return True

    def release(self, device_index: int) -> bool:
        """Re-admit a repaired device (operator action, not automatic)."""
        if device_index not in self.quarantined:
            return False
        self.quarantined.discard(device_index)
        if self._metrics is not None:
            self._metrics.counter(
                "quarantine.released", device=str(device_index)
            ).inc()
        self._set_gauge()
        return True

    # -- healing --------------------------------------------------------

    def _repair_sync_if_stale(self) -> None:
        """Replay sync history when the shared ORAM missed a block.

        An equivocated sync leaves ``last_verified_root`` behind the
        node's root at the claimed height; any other audit failure
        leaves it current, making the replay a no-op we skip.  The
        ``blocks_synced`` guard avoids a spurious replay on deployments
        that never synced (root is ``None`` until the first
        ``sync_block``).
        """
        service = self.service
        device = service.devices[0]
        if device.oram_backend is None or service.stats.blocks_synced == 0:
            return
        tip_root = service.node.block_at(
            service.synced_height
        ).block.header.state_root
        if device.hypervisor.last_verified_root == tip_root:
            return
        replayed = service.repair_sync()
        self.resyncs += 1
        if self._metrics is not None:
            self._metrics.counter("quarantine.resynced").inc()
            self._metrics.counter(
                "quarantine.resynced_blocks"
            ).inc(replayed)

    def heal(
        self, bundle: FailoverBundle, from_index: int, *, session_id=None
    ):
        """Re-execute an audited-bad bundle on a healthy device.

        Returns ``(target_index, sealed_out)``.  Raises
        :class:`~repro.faults.errors.QuarantinedDeviceError` when no
        healthy session-holding device remains — the caller's signal to
        shed the request rather than serve a tainted result.
        """
        self._repair_sync_if_stale()
        target = None
        for index in bundle.device_indices:
            device = self.service.devices[index]
            if (
                index != from_index
                and index not in self.quarantined
                and device.idle_hevms > 0
            ):
                target = index
                break
        if target is None:
            error = QuarantinedDeviceError(
                from_index, tuple(self.quarantined)
            )
            if self._flight is not None and session_id is not None:
                self._flight.seal_if_triggered(
                    session_id, type(error).__name__, str(error),
                    self.service.clock.now_us,
                )
            raise error
        sealed_out, _, _, _ = self.service.submit_bundle(
            self.service.devices[target],
            bundle.session_for(target),
            bundle.seal_for(target),
        )
        self.heals += 1
        if self._metrics is not None:
            self._metrics.counter("quarantine.healed").inc()
            self._metrics.counter(
                "quarantine.healed",
                from_device=str(from_index),
                to_device=str(target),
            ).inc()
        return target, sealed_out


__all__ = [
    "RECOVERABLE_ERRORS",
    "CircuitBreaker",
    "FailoverBundle",
    "QuarantinePolicy",
    "RecoveryOutcome",
    "RetryPolicy",
]
