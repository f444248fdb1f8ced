"""Serving more bundles does not grow the service's, the cores' or the
ORAM adapters' stats.

Counters may climb; a list, dict or other container held by
``service.stats``, by any core's ``l2.stats`` or by any device's
``oram_backend.stats`` may not get longer once the service is warm, or a
long-lived device keeps one record per request for its whole life.
"""

import dataclasses

from repro.core.device import DeviceConfig
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.hypervisor import SecurityFeatures
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
