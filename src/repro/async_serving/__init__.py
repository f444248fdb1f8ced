"""repro.async_serving — the event-driven C10K serving plane.

Thousands of per-session state machines are multiplexed onto the
gateway/router frontends as events on the serving pipeline's one
virtual-time reactor (:mod:`repro.serving.reactor`), and resumption
tickets amortize the attestation+DHKE handshake across reconnects.  See
:mod:`repro.async_serving.tier` for the layering and
:mod:`repro.hypervisor.resumption` for the ticket protocol.
"""

from repro.hypervisor.lifecycle import InvalidSessionTransition, SessionState
from repro.async_serving.tier import (
    AsyncServingConfig,
    AsyncServingTier,
    AsyncSession,
    ModelHandshakeEngine,
    ServiceHandshakeEngine,
    ServiceTenant,
    SessionCapacityError,
    SessionClosedError,
)

# The bench drives the whole serving stack; loading it lazily (PEP 562)
# keeps ``import repro.async_serving`` free of it.
_BENCH_EXPORTS = ("C10kBenchConfig", "C10kBenchReport", "run_c10k_bench")


def __getattr__(name: str):
    if name in _BENCH_EXPORTS:
        from repro.async_serving import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
