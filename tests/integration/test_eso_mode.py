"""The -ESO configuration: storage through ORAM, code through plain
prefetched memory — the intermediate point of Figure 4."""

import pytest

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.state.blocks import Transaction
from repro.workloads.contracts.profile import profile_calldata


@pytest.fixture(scope="module")
def evalset(request):
    return request.getfixturevalue("tiny_evalset")


@pytest.fixture(scope="module")
def eso(evalset):
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("ESO"), charge_fees=False
    )
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x0f" * 32
    )
    return service, client, client.connect(service)


def test_eso_storage_goes_through_oram(eso, evalset):
    service, client, session = eso
    backend = service.devices[0].oram_backend
    assert backend is not None
    tx = Transaction(
        sender=evalset.population.users[0],
        to=evalset.population.profiles[0],
        data=profile_calldata(4, 0),
    )
    before_storage = backend.stats.storage_queries
    before_code = backend.stats.code_queries
    report, _, breakdowns = client.pre_execute(service, session, [tx])
    assert report.traces[0].status == 1
    assert backend.stats.storage_queries > before_storage  # K-V via ORAM
    assert backend.stats.code_queries == before_code       # code NOT via ORAM
    assert breakdowns[0].oram_storage_us > 0
    assert breakdowns[0].oram_code_us == 0


def test_eso_code_fetches_visible_to_adversary(eso, evalset):
    """In -ESO the adversary sees plain code fetches (direct queries) —
    the leak that motivates going -full."""
    service, client, session = eso
    tx = Transaction(
        sender=evalset.population.users[1],
        to=evalset.population.profiles[2],
        data=profile_calldata(1, 0),
    )
    _, _, _, run_stats = service.submit_bundle(
        session.device,
        session.session_id,
        _seal(session, service, [tx]),
    )
    assert run_stats.direct_queries > 0


def _seal(session, service, transactions):
    from repro.hypervisor.bundle_codec import TransactionBundle, encode_bundle

    bundle = TransactionBundle(
        transactions=tuple(transactions), block_number=service.synced_height
    )
    return session.channel.seal(encode_bundle(bundle))


def test_eso_results_match_full(eso, evalset):
    service, client, session = eso
    full_service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    full_client = PreExecutionClient(
        full_service.manufacturer.root_public_key, rng_seed=b"\x1f" * 32
    )
    full_session = full_client.connect(full_service)
    tx = evalset.transactions[2]
    report_eso, _, _ = client.pre_execute(service, session, [tx])
    report_full, _, _ = full_client.pre_execute(full_service, full_session, [tx])
    assert report_eso.traces[0].gas_used == report_full.traces[0].gas_used
    assert report_eso.traces[0].return_data == report_full.traces[0].return_data
