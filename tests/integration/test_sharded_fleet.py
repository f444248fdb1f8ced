"""Integration tests: the second ORAM backend under a real service.

The pyramid backend (the sharding plane's per-shard override) selected
per device through ``DeviceConfig``, end to end against the path
backend, and the one option combination it refuses.
"""

import pytest

from repro.core import (
    DeviceConfig,
    HarDTAPEService,
    PreExecutionClient,
    SecurityFeatures,
)

pytestmark = pytest.mark.sharding


@pytest.fixture(scope="module")
def evalset(request):
    return request.getfixturevalue("tiny_evalset")


def test_pyramid_device_config_end_to_end(evalset):
    """The second ORAM backend under a real service, selected per device."""
    def run(backend_name):
        service = HarDTAPEService(
            evalset.node,
            SecurityFeatures.from_level("full"),
            device_config=DeviceConfig(
                oram_height=10, oram_backend=backend_name,
                pyramid_cache_blocks=64,
            ),
            charge_fees=False,
        )
        client = PreExecutionClient(
            service.manufacturer.root_public_key, rng_seed=b"\x0c" * 32
        )
        session = client.connect(service)
        results = []
        for tx in evalset.transactions[:3]:
            report, _, _ = client.pre_execute(service, session, [tx])
            trace = report.traces[0]
            results.append((trace.status, trace.gas_used, trace.return_data))
        return results

    assert run("pyramid") == run("path")


def test_pyramid_rejects_recursive_position_map(evalset):
    with pytest.raises(ValueError):
        HarDTAPEService(
            evalset.node,
            SecurityFeatures.from_level("full"),
            device_config=DeviceConfig(
                oram_backend="pyramid", recursive_position_map=True
            ),
            charge_fees=False,
        )
