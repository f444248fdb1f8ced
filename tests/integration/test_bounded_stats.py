"""Serving more bundles does not grow the service's, the cores' or the
ORAM adapters' stats, and serving more requests does not grow the
async tier.

Counters may climb; a list, dict or other container held by
``service.stats``, by any core's ``l2.stats``, by any device's
``oram_backend.stats`` or by the tier itself may not get longer once
the stack is warm, or a long-lived process keeps one record per request
for its whole life.
"""

import dataclasses
from collections import deque

from repro.core.device import DeviceConfig
from repro.core.service import HarDTAPEService
from repro.async_serving.tier import (
    AsyncServingConfig,
    AsyncServingTier,
    ModelHandshakeEngine,
)
from repro.bench.tiers import SUSPEND_AFTER_US
from repro.core.user import PreExecutionClient
from repro.hardware.timing import CostModel
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.serving.gateway import FleetModelExecutor, Gateway, GatewayConfig
from repro.serving.loadgen import synthetic_profiles
from repro.serving.reactor import VirtualReactor
from repro.serving.router import ShardSessionRouter
from repro.state.blocks import Transaction
from repro.workloads.contracts import rollup

WARM_UP_BUNDLES = 2
MEASURED_BUNDLES = 4


def _container_lengths(service) -> dict[str, int]:
    holders = {"service.stats": service.stats} | {
        f"device {d} core {core.core_id} l2.stats": core.l2.stats
        for d, device in enumerate(service.devices)
        for core in device.cores
    } | {
        f"device {d} oram_backend.stats": device.oram_backend.stats
        for d, device in enumerate(service.devices)
    }
    return {
        f"{owner}.{field.name}": len(value)
        for owner, stats in holders.items()
        for field in dataclasses.fields(stats)
        if hasattr(value := getattr(stats, field.name), "__len__")
    }


def _pages_swapped(service) -> int:
    return sum(
        core.l2.stats.pages_swapped_out
        for device in service.devices
        for core in device.cores
    )


def test_more_bundles_grow_no_container_in_service_or_l2_stats(tiny_evalset):
    """A rollup frame larger than the 32 KB frame limit of a 64 KB
    layer 2 spills and fills on every bundle, so the swap path runs in
    the measured interval.  Each bundle reads over 600 pages, so the
    warm-up alone fills the adapter's query log past its bound and the
    measured bundles would lengthen a log that kept every read
    (ROADMAP item 24).
    """
    service = HarDTAPEService(
        tiny_evalset.node,
        SecurityFeatures.from_level("full"),
        device_config=DeviceConfig(
            oram_height=10, l2_bytes=64 * 1024, oversize_policy="spill"
        ),
        charge_fees=False,
    )
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x0d" * 32
    )
    session = client.connect(service)
    population = tiny_evalset.population
    bundle = [
        Transaction(
            sender=population.users[0],
            to=population.rollup_contract,
            data=rollup.rollup_calldata([(i, i + 1) for i in range(600)]),
            gas_limit=10**9,
        ),
        tiny_evalset.transactions[0],
    ]

    for _ in range(WARM_UP_BUNDLES):
        client.pre_execute(service, session, bundle)
    warm, swapped = _container_lengths(service), _pages_swapped(service)
    warm_reads = [device.oram_backend.stats.total for device in service.devices]
    for _ in range(MEASURED_BUNDLES):
        report, _, _ = client.pre_execute(service, session, bundle)
        assert not report.aborted

    assert _pages_swapped(service) > swapped
    assert service.stats.bundles_served == WARM_UP_BUNDLES + MEASURED_BUNDLES
    grown = {
        name: (warm[name], length)
        for name, length in _container_lengths(service).items()
        if length > warm[name]
    }
    assert grown == {}
    # The log was full before the measured bundles: they were read past
    # its bound, not into spare room.
    assert all(
        reads > warm[f"device {d} oram_backend.stats.log"]
        for d, reads in enumerate(warm_reads)
    )


# What the tier was handed rather than built: each is bounded, or not,
# on its own account.
_COLLABORATORS = {"frontend", "reactor", "engine", "flight", "config"}
# ROADMAP 24's remaining finding: every ``Histogram`` keeps each value
# it observed in ``samples``, so the tier's registry grows per handshake.
_KNOWN_UNBOUNDED = {"metrics"}


def _items_held(value, seen: set[int]) -> int:
    """Items reachable from ``value`` through containers and the fields
    of the records they hold."""
    if id(value) in seen or isinstance(value, (str, bytes, int, float)):
        return 0
    seen.add(id(value))
    if isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, (list, tuple, set, frozenset, deque)):
        items = list(value)
    elif hasattr(value, "__dict__"):
        return sum(_items_held(field, seen) for field in vars(value).values())
    else:
        return 0
    return len(items) + sum(_items_held(item, seen) for item in items)


def _tier_holdings(tier) -> dict[str, int]:
    return {
        name: _items_held(value, set())
        for name, value in vars(tier).items()
        if name not in _COLLABORATORS | _KNOWN_UNBOUNDED
    }


def test_more_requests_grow_nothing_the_tier_holds():
    """``run_model_tier``'s shape — model handshakes and real sealed
    tickets over a sharded model fleet — in cycles: every session sends
    a request, then idles into a ticket.  A warm tier serving more
    cycles holds no more: a request reports back through its
    ``on_done``, and the tier keeps no record of it."""
    cost = CostModel()
    reactor = VirtualReactor()
    router = ShardSessionRouter({
        shard: Gateway(FleetModelExecutor(4, cost), GatewayConfig(),
                       reactor=reactor)
        for shard in range(2)
    })
    tier = AsyncServingTier(
        router, ModelHandshakeEngine(cost, seed=5),
        config=AsyncServingConfig(suspend_after_us=SUSPEND_AFTER_US),
    )
    profiles = synthetic_profiles(cost, "mixed", count=4, seed=5)
    rids = [b"bounded-%02d" % index for index in range(8)]
    for rid in rids:
        tier.open_session(rid)

    def cycle(ordinal: int) -> None:
        for rid in rids:
            tier.submit(rid, profiles[ordinal % len(profiles)])
        tier.run()

    for ordinal in range(WARM_UP_BUNDLES):
        cycle(ordinal)
    warm = _tier_holdings(tier)
    for ordinal in range(MEASURED_BUNDLES):
        cycle(WARM_UP_BUNDLES + ordinal)

    cycles = WARM_UP_BUNDLES + MEASURED_BUNDLES
    assert tier.metrics.snapshot()["tier.resumed"] == len(rids) * (cycles - 1)
    assert sum(
        count for key, count in router.load_metrics().items()
        if key.endswith(".gateway.completed")
    ) == len(rids) * cycles
    grown = {
        name: (warm[name], held)
        for name, held in _tier_holdings(tier).items()
        if held > warm[name]
    }
    assert grown == {}
