"""The serving layer: HarDTAPE's untrusted multi-tenant front door.

Sits above ``repro.core``; observes ``hardware``/``hypervisor`` stats;
is never imported by the substrates.  See ``gateway`` for the request
lifecycle, ``admission`` for overload policy, ``loadgen`` for the
closed/open-loop harness, ``reactor`` for the one virtual-time event
loop all of it runs on, and ``metrics`` for the registry everything
reports into.
"""

from repro.serving.admission import (
    AdmissionPolicy,
    QueueDepthShedPolicy,
    RejectReason,
)
from repro.serving.gateway import (
    BundleExecutor,
    ExecutionFailure,
    FleetModelExecutor,
    Gateway,
    GatewayConfig,
    GatewayRequest,
    RequestStatus,
    ServiceExecutor,
)
from repro.serving.loadgen import (
    LoadReport,
    LoadSession,
    arrival_times,
    load_report,
    model_gateway,
    model_sessions,
    run_closed_loop,
    run_open_loop,
    synthetic_profiles,
)
from repro.serving.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serving.reactor import VirtualReactor
from repro.serving.router import SESSION_RING_SEED, ShardSessionRouter

__all__ = [
    "AdmissionPolicy",
    "BundleExecutor",
    "Counter",
    "ExecutionFailure",
    "FleetModelExecutor",
    "Gauge",
    "Gateway",
    "GatewayConfig",
    "GatewayRequest",
    "Histogram",
    "LoadReport",
    "LoadSession",
    "MetricsRegistry",
    "QueueDepthShedPolicy",
    "RejectReason",
    "RequestStatus",
    "SESSION_RING_SEED",
    "ServiceExecutor",
    "ShardSessionRouter",
    "VirtualReactor",
    "arrival_times",
    "load_report",
    "model_gateway",
    "model_sessions",
    "run_closed_loop",
    "run_open_loop",
    "synthetic_profiles",
]
