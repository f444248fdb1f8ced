"""End-to-end: user ↔ service ↔ device ↔ ORAM, full security stack."""

import pytest

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.crypto.puf import Manufacturer
from repro.hardware.timing import CostModel
from repro.hypervisor.attestation import AttestationError
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.state.blocks import Transaction
from repro.telemetry.tracer import install_tracer, uninstall_tracer
from repro.workloads.contracts import erc20


@pytest.fixture(scope="module")
def service(request):
    evalset = request.getfixturevalue("tiny_evalset")
    return HarDTAPEService(
        evalset.node,
        SecurityFeatures.from_level("full"),
        charge_fees=False,
    )


@pytest.fixture(scope="module")
def evalset(request):
    return request.getfixturevalue("tiny_evalset")


def _client(service):
    return PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x09" * 32
    )


def test_connect_and_pre_execute(service, evalset):
    client = _client(service)
    session = client.connect(service)
    tx = evalset.transactions[0]
    report, elapsed, breakdowns = client.pre_execute(service, session, [tx])
    assert len(report.traces) == 1
    assert report.traces[0].status == 1
    assert elapsed > 0
    assert breakdowns[0].oram_storage_us > 0


def test_an_opened_message_is_charged_at_the_verify_cost(evalset):
    """Sign and verify are separate cost constants: with the verify
    cost set apart from the signing cost, a bundle's ``channel.verify``
    span and the Hypervisor's crypto time follow the verify constant."""
    cost = CostModel(ecdsa_verify_us=7_000.0)
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), cost=cost, charge_fees=False
    )
    client = _client(service)
    session = client.connect(service)
    stats = session.device.hypervisor.stats
    before = stats.crypto_time_us
    tracer = install_tracer(service.clock)
    try:
        client.pre_execute(service, session, [evalset.transactions[0]])
    finally:
        uninstall_tracer(service.clock)
    signatures = {
        span.name: span.duration_us for span in tracer.spans if span.layer == "signature"
    }
    assert signatures == {"channel.verify": 7_000.0, "channel.sign": cost.ecdsa_sign_us}
    aead_us = sum(
        span.duration_us for span in tracer.spans
        if span.name in ("channel.open", "channel.seal")
    )
    assert stats.crypto_time_us - before == pytest.approx(
        aead_us + 7_000.0 + cost.ecdsa_sign_us
    )


def test_trace_matches_onchain_effects(service, evalset):
    client = _client(service)
    session = client.connect(service)
    population = evalset.population
    user = population.users[0]
    peer = population.users[1]
    tx = Transaction(
        sender=user,
        to=population.token_a,
        data=erc20.transfer_calldata(peer, 123),
    )
    report, _, _ = client.pre_execute(service, session, [tx])
    trace = report.traces[0]
    assert trace.status == 1
    assert int.from_bytes(trace.return_data, "big") == 1
    # The storage changes cover both balance slots.
    changed_slots = {key for (addr, key) in trace.storage_changes}
    assert erc20.balance_slot(user) in changed_slots
    assert erc20.balance_slot(peer) in changed_slots
    # One Transfer log with the canonical topic.
    assert trace.logs[0][1][0] == erc20.TRANSFER_EVENT_SIG


def test_bundle_transactions_see_each_other(service, evalset):
    client = _client(service)
    session = client.connect(service)
    population = evalset.population
    user = population.users[2]
    peer = population.users[3]
    bundle = [
        Transaction(
            sender=user, to=population.token_a,
            data=erc20.transfer_calldata(peer, 500),
        ),
        Transaction(
            sender=peer, to=population.token_a,
            data=erc20.balance_of_calldata(peer),
        ),
    ]
    report, _, _ = client.pre_execute(service, session, bundle)
    balance_after = int.from_bytes(report.traces[1].return_data, "big")
    # The second tx observes the first one's transfer within the bundle.
    onchain = service.node.state_at(service.synced_height).accounts[
        population.token_a
    ].storage.get(erc20.balance_slot(peer), 0)
    assert balance_after == onchain + 500


def test_pre_execution_does_not_persist(service, evalset):
    client = _client(service)
    session = client.connect(service)
    population = evalset.population
    user = population.users[4]
    peer = population.users[5]
    slot = erc20.balance_slot(peer)
    before = service.node.state_at(service.synced_height).accounts[
        population.token_b
    ].storage.get(slot, 0)
    tx = Transaction(
        sender=user, to=population.token_b,
        data=erc20.transfer_calldata(peer, 77),
    )
    client.pre_execute(service, session, [tx])
    client.pre_execute(service, session, [tx])  # run twice: still isolated
    after = service.node.state_at(service.synced_height).accounts[
        population.token_b
    ].storage.get(slot, 0)
    assert after == before  # workflow step 10: nothing persists


def test_fake_manufacturer_detected(service):
    rogue = Manufacturer(b"rogue")
    client = PreExecutionClient(rogue.root_public_key, rng_seed=b"\x01" * 32)
    with pytest.raises(AttestationError):
        client.connect(service)


def test_wrong_firmware_measurement_detected(service):
    from repro.hardware.csu import BootImage

    client = PreExecutionClient(
        service.manufacturer.root_public_key,
        expected_measurement=BootImage("hv", b"other").measurement(),
        rng_seed=b"\x02" * 32,
    )
    with pytest.raises(AttestationError):
        client.connect(service)


def test_sessions_are_independent(service, evalset):
    client_a = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x0a" * 32
    )
    client_b = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x0b" * 32
    )
    session_a = client_a.connect(service)
    session_b = client_b.connect(service)
    assert session_a.session_id != session_b.session_id
    tx = evalset.transactions[0]
    report_a, _, _ = client_a.pre_execute(service, session_a, [tx])
    report_b, _, _ = client_b.pre_execute(service, session_b, [tx])
    assert report_a.traces[0].gas_used == report_b.traces[0].gas_used


def test_scheduler_stats_track_bundles(service):
    device = service.devices[0]
    stats = device.hypervisor.scheduler.stats
    assert stats.bundles_completed == stats.bundles_started
    assert device.idle_hevms == device.config.hevm_count  # all released
