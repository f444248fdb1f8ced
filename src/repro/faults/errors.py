"""Typed errors of the fault-injection plane.

Every fault the plane can inject surfaces as a *typed* exception at the
component boundary where the paper's Hypervisor would detect it — never
as a generic crash — so recovery policies can dispatch on the type and
metrics can account for every failure by name.  Detection errors that
already exist in the substrates keep their homes and are re-exported
here for one-stop imports:

* :class:`~repro.hypervisor.channel.ChannelError` — authenticated-DMA
  tag / signature / replay failure on a channel message,
* :class:`~repro.crypto.suite.AuthenticationError` — AES-GCM tag failure
  on an ORAM bucket or encrypted-store blob,
* :class:`~repro.hypervisor.sync.SyncError` — Merkle proof rejection
  during block sync,
* :class:`~repro.hypervisor.attestation.AttestationError` — report
  verification failure on the user side,
* :class:`~repro.oram.client.OramTimeoutError` /
  :class:`~repro.oram.server.OramServerStall` — the untrusted store
  stalling past (or within) the client's virtual-time budget,
* :class:`~repro.hypervisor.hypervisor.UnknownSessionError` — a bundle
  for a session id the Hypervisor never established,
* :class:`~repro.hypervisor.hypervisor.HypervisorCrashError` — the whole
  Hypervisor cold-restarted, losing volatile trusted state,
* :class:`~repro.oram.client.RollbackDetectedError` — the SP served an
  authentic-but-stale ORAM tree (freshness violation, not corruption).
"""

from __future__ import annotations

from repro.crypto.suite import AuthenticationError
from repro.hypervisor.attestation import AttestationError
from repro.hypervisor.channel import ChannelError
from repro.hypervisor.hypervisor import HypervisorCrashError, UnknownSessionError
from repro.hypervisor.receipts import (
    ReceiptError,
    ReceiptMismatchError,
    ReceiptMissingError,
)
from repro.hypervisor.sync import SyncError
from repro.oram.client import OramTimeoutError, RollbackDetectedError
from repro.oram.server import OramServerStall


class FaultError(Exception):
    """Base class of errors raised *by* the fault plane itself."""


class DmaDropError(FaultError):
    """An authenticated-DMA message was dropped on the wire.

    The receiver never sees the message; in the synchronous simulation
    the drop surfaces at the submission call site.
    """


class HevmCrashError(FaultError):
    """An HEVM core crashed mid-bundle (workflow steps 4-9).

    The Hypervisor scrubs and releases the core before this propagates,
    so the crashed core returns to the idle pool state-free.
    """

    def __init__(self, core_id: int, txs_completed: int) -> None:
        super().__init__(
            f"HEVM core {core_id} crashed after {txs_completed} transaction(s)"
        )
        self.core_id = core_id
        self.txs_completed = txs_completed


class CircuitOpenError(FaultError):
    """A circuit breaker refused the operation (failing component)."""

    def __init__(self, target: str, until_us: float) -> None:
        super().__init__(f"circuit for {target} open until t={until_us:.0f} µs")
        self.target = target
        self.until_us = until_us


class FailedOverError(FaultError):
    """Typed outcome marker: a bundle completed only after re-dispatch.

    Recorded (by name) in the metrics registry and on the request's
    recovery record whenever gateway-level failover rescued a bundle
    from a faulted HEVM/device; raised as the terminal error when even
    the failover target could not complete the bundle.
    """

    def __init__(self, from_device: int, to_device: int, cause: Exception) -> None:
        super().__init__(
            f"bundle failed over from device {from_device} to {to_device} "
            f"after {type(cause).__name__}"
        )
        self.from_device = from_device
        self.to_device = to_device
        self.cause = cause


class BundleFailedError(FaultError):
    """Recovery exhausted: the bundle could not be completed.

    Carries the virtual time the attempts consumed (``service_us``) so
    the gateway can account the slot occupancy of the failed request.
    """

    def __init__(self, attempts: int, last_error: Exception, service_us: float) -> None:
        super().__init__(
            f"bundle failed after {attempts} attempt(s): "
            f"{type(last_error).__name__}: {last_error}"
        )
        self.attempts = attempts
        self.last_error = last_error
        self.service_us = service_us


class QuarantinedDeviceError(FaultError):
    """A bundle could not be healed: every candidate device is quarantined.

    The quarantine policy's terminal refusal — raised when an audit
    failure demands re-execution but no healthy device holds a session
    for the bundle.  Seals a flight-recorder dump like every other
    terminal failure.
    """

    def __init__(self, from_device: int, quarantined: tuple[int, ...]) -> None:
        super().__init__(
            f"no healthy failover target for device {from_device}; "
            f"quarantined devices: {sorted(quarantined)}"
        )
        self.from_device = from_device
        self.quarantined = tuple(quarantined)


__all__ = [
    "AttestationError",
    "AuthenticationError",
    "BundleFailedError",
    "ChannelError",
    "CircuitOpenError",
    "DmaDropError",
    "FailedOverError",
    "FaultError",
    "HevmCrashError",
    "HypervisorCrashError",
    "OramServerStall",
    "OramTimeoutError",
    "QuarantinedDeviceError",
    "ReceiptError",
    "ReceiptMismatchError",
    "ReceiptMissingError",
    "RollbackDetectedError",
    "SyncError",
    "UnknownSessionError",
]
