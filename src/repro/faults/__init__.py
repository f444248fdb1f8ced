"""The deterministic fault-injection plane (``repro.faults``).

HarDTAPE's security story is exception handling: the Hypervisor is the
component charged with surviving a malicious or merely flaky SP —
tampered DMA messages, stalled or corrupted ORAM storage, forked block
headers, dying cores.  This package exercises exactly those paths, on
purpose and reproducibly:

* :mod:`~repro.faults.plan` — *what* fails: seeded, virtual-time fault
  schedules (:class:`FaultPlan` / :class:`FaultRule`) whose every
  decision derives from ``(seed, kind, decision index)``;
* :mod:`~repro.faults.injector` — *where* it fails:
  :class:`FaultInjector` arms a plan onto the substrate seams (channel
  receive, ORAM path reads, HEVM transaction starts, attestation
  reports, sync roots);
* :mod:`~repro.faults.policy` — *how it recovers*: the retry, circuit
  breaker, failover-payload and quarantine policies that
  :class:`~repro.serving.gateway.ServiceExecutor` applies, all typed
  end to end;
* :mod:`~repro.faults.harness` — the chaos harness driving serving-layer
  load under escalating fault rates (:func:`run_chaos`).

Layering: ``faults`` sits *beside* ``serving`` above the substrates.
Substrate modules never import it — they only expose inert seams
(``.faults`` / ``.fault_hook`` attributes, ``None`` in production).
"""

from repro.faults.errors import (
    AttestationError,
    AuthenticationError,
    BundleFailedError,
    ChannelError,
    CircuitOpenError,
    DmaDropError,
    FailedOverError,
    FaultError,
    HevmCrashError,
    HypervisorCrashError,
    OramServerStall,
    OramTimeoutError,
    QuarantinedDeviceError,
    ReceiptError,
    ReceiptMismatchError,
    ReceiptMissingError,
    RollbackDetectedError,
    SyncError,
    UnknownSessionError,
)
from repro.faults.injector import FaultInjector, FaultyOramServer
from repro.faults.plan import FaultKind, FaultPlan, FaultRule, InjectionRecord
from repro.faults.policy import (
    RECOVERABLE_ERRORS,
    CircuitBreaker,
    FailoverBundle,
    QuarantinePolicy,
    RecoveryOutcome,
    RetryPolicy,
)

# The chaos harness drives the whole serving stack; loading it lazily
# (PEP 562) keeps ``import repro.faults`` free of it.
_HARNESS_EXPORTS = (
    "SERVING_FAULT_KINDS",
    "ChaosConfig",
    "ChaosReport",
    "run_chaos",
    "run_escalation",
)


def __getattr__(name: str):
    if name in _HARNESS_EXPORTS:
        from repro.faults import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "RECOVERABLE_ERRORS",
    "SERVING_FAULT_KINDS",
    "AttestationError",
    "AuthenticationError",
    "BundleFailedError",
    "ChannelError",
    "ChaosConfig",
    "ChaosReport",
    "CircuitBreaker",
    "CircuitOpenError",
    "DmaDropError",
    "FailedOverError",
    "FailoverBundle",
    "FaultError",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "FaultyOramServer",
    "HevmCrashError",
    "HypervisorCrashError",
    "InjectionRecord",
    "OramServerStall",
    "OramTimeoutError",
    "QuarantinePolicy",
    "QuarantinedDeviceError",
    "ReceiptError",
    "ReceiptMismatchError",
    "ReceiptMissingError",
    "RecoveryOutcome",
    "RollbackDetectedError",
    "RetryPolicy",
    "SyncError",
    "UnknownSessionError",
    "run_chaos",
    "run_escalation",
]
