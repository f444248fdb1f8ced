"""Integration tests: the sharded ORAM fleet end to end.

Covers the fleet lifecycle the unit tests only touch in pieces: arm
per-shard recovery, crash one shard mid-service, verify the typed
per-shard error (the regression: it must NOT be the whole-fleet
``BundleFailedError``), recover from that shard's store alone, and
confirm data continuity — plus the pyramid backend running under a
real ``HarDTAPEService`` via ``DeviceConfig``.
"""

import hashlib

import pytest

from repro.core import (
    DeviceConfig,
    HarDTAPEService,
    PreExecutionClient,
    SecurityFeatures,
)
from repro.faults.errors import BundleFailedError
from repro.oram import paging
from repro.sharding import (
    ShardedObliviousStateBackend,
    ShardedOramConfig,
    ShardedOramFleet,
    ShardRecoveryCoordinator,
    ShardUnavailableError,
    SoftwareSealingAuthority,
    UnsupportedShardBackendError,
)
from repro.state.account import Account

pytestmark = pytest.mark.sharding

MASTER = hashlib.sha256(b"integration-fleet-master").digest()


@pytest.fixture(scope="module")
def evalset(request):
    return request.getfixturevalue("tiny_evalset")


def _accounts(n=12):
    out = {}
    for i in range(n):
        address = hashlib.blake2b(b"int-acct-%d" % i, digest_size=20).digest()
        out[address] = Account(
            balance=5000 + i,
            nonce=i % 5,
            code=bytes([i % 200] * 80),
            storage={0: i, 33: i * 3},
        )
    return out


def _armed_backend(shard_count=3):
    fleet = ShardedOramFleet(
        ShardedOramConfig(shard_count=shard_count, oram_height=7), MASTER
    )
    backend = ShardedObliviousStateBackend(fleet)
    coordinator = ShardRecoveryCoordinator(
        backend, SoftwareSealingAuthority(MASTER), checkpoint_interval=4
    )
    return backend, coordinator


def test_single_shard_crash_recovers_without_disturbing_the_fleet():
    backend, recovery = _armed_backend()
    accounts = _accounts()
    backend.sync_world(accounts)
    recovery.arm()
    assert recovery.armed_shards() == (0, 1, 2)

    # Journal some post-checkpoint traffic so recovery has work to do.
    addresses = sorted(accounts)
    for address in addresses:
        backend.get_meta(address)
    victim_address = addresses[0]
    victim = backend.shard_for_page(paging.account_page_key(victim_address))
    untouched = [sid for sid in backend.fleet.shard_ids if sid != victim]

    recovery.crash_shard(victim, "integration crash")
    with pytest.raises(ShardUnavailableError) as err:
        backend.get_meta(victim_address)
    assert err.value.shard_id == victim
    # Regression: the per-shard outage is NOT the whole-fleet error the
    # fault plane uses for condemned bundles.
    assert not isinstance(err.value, BundleFailedError)
    # Survivors keep serving reads correctly during the outage.
    for address in addresses:
        owner = backend.shard_for_page(paging.account_page_key(address))
        if owner != victim:
            assert backend.get_meta(address).balance == accounts[address].balance

    stores_before = {sid: recovery.store(sid).snapshot() for sid in untouched}
    replayed = recovery.recover_shard(victim)
    assert replayed >= 0
    # Blast radius: recovering the victim wrote to ITS store alone.
    for sid in untouched:
        assert recovery.store(sid).snapshot() == stores_before[sid]
    # Continuity: the recovered shard serves exactly the pre-crash state.
    for address in addresses:
        assert backend.get_meta(address).balance == accounts[address].balance
        assert backend.get_storage(address, 33) == accounts[address].storage[33]


def test_arming_a_pyramid_shard_is_a_typed_refusal():
    fleet = ShardedOramFleet(
        ShardedOramConfig(
            shard_count=2, oram_height=7,
            backend_overrides={1: "pyramid"},
        ),
        MASTER,
    )
    backend = ShardedObliviousStateBackend(fleet)
    recovery = ShardRecoveryCoordinator(backend, SoftwareSealingAuthority(MASTER))
    with pytest.raises(UnsupportedShardBackendError) as err:
        recovery.arm()
    assert err.value.shard_id == 1
    assert err.value.backend == "pyramid"


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
