"""L1 cache pressure, query padding, and service error paths."""

import pytest

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.channel import ChannelError, SealedMessage
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.state.blocks import Transaction
from repro.workloads.contracts import rollup
from repro.workloads.contracts.profile import profile_calldata


@pytest.fixture(scope="module")
def evalset(request):
    return request.getfixturevalue("tiny_evalset")


def _service(evalset, level="full", **features_overrides):
    features = SecurityFeatures.from_level(level)
    for name, value in features_overrides.items():
        setattr(features, name, value)
    return HarDTAPEService(evalset.node, features, charge_fees=False)


def _session(service, seed=b"\x0e" * 32):
    client = PreExecutionClient(service.manufacturer.root_public_key, rng_seed=seed)
    return client, client.connect(service)


def test_l1_ws_cache_evicts_past_64_records(evalset):
    """A frame touching 80 slots overflows the 64-record L1 partition,
    forcing re-queries on revisit — visible as extra ORAM accesses."""
    service = _service(evalset)
    client, session = _session(service)
    population = evalset.population
    target = population.profiles[0]
    # Touch 80 consecutive slots twice (two txs in one bundle).
    tx = Transaction(
        sender=population.users[0], to=target, data=profile_calldata(80, 0)
    )
    server = service.oram_server
    before = server.stats.reads
    report, _, _ = client.pre_execute(service, session, [tx, tx])
    assert report.traces[0].status == 1
    queries = server.stats.reads - before
    # With 80 > 64 slots, the second tx cannot be served fully from L1:
    # storage groups must be refetched.  A pure-cache run of the second
    # tx would add ~0 storage queries; we require clearly more than one
    # tx's worth (~80/32 groups + meta + code) but less than double.
    one_tx_floor = 80 // 32 + 1
    assert queries > one_tx_floor * 1.2


def test_small_frames_fully_cached_on_second_tx(evalset):
    """Contrast: ≤64 slots fit in L1, so the second tx adds no storage
    ORAM queries at all."""
    service = _service(evalset)
    client, session = _session(service)
    population = evalset.population
    target = population.profiles[1]
    tx = Transaction(
        sender=population.users[0], to=target, data=profile_calldata(8, 0)
    )
    backend = service.devices[0].oram_backend
    client.pre_execute(service, session, [tx])
    storage_after_first = backend.stats.storage_queries
    client.pre_execute(service, session, [tx])
    # New bundle = scrubbed core = cold cache again; but within ONE
    # bundle of two txs the second is free:
    before = backend.stats.storage_queries
    client.pre_execute(service, session, [tx, tx])
    two_tx = backend.stats.storage_queries - before
    assert two_tx <= storage_after_first + 1  # second tx ~free


def test_query_padding_rounds_to_power_of_two(evalset):
    service = _service(evalset, query_padding=True)
    client, session = _session(service)
    population = evalset.population
    server = service.oram_server
    tx = Transaction(
        sender=population.users[0],
        to=population.profiles[0],
        data=profile_calldata(3, 0),
    )
    before = server.stats.reads
    client.pre_execute(service, session, [tx])
    queries = server.stats.reads - before
    assert queries & (queries - 1) == 0, f"{queries} is not a power of two"


def test_unknown_session_rejected(evalset):
    service = _service(evalset)
    with pytest.raises(KeyError):
        service.devices[0].hypervisor.submit_bundle(
            b"\x00" * 16, b"garbage", service.pending_chain_context()
        )


def test_garbage_ciphertext_rejected(evalset):
    service = _service(evalset)
    client, session = _session(service)
    bogus = SealedMessage(nonce=(99).to_bytes(12, "big"), ciphertext=b"\x00" * 64)
    with pytest.raises(ChannelError):
        service.devices[0].hypervisor.submit_bundle(
            session.session_id, bogus, service.pending_chain_context()
        )


def test_a_host_built_wrong_length_nonce_is_refused_at_level_e(evalset):
    """Level E has no signatures, so a host-built message reaches the
    cipher unless the channel refuses its 13-byte nonce first — as a
    ``ChannelError``, with the device's watermark where it was."""
    service = _service(evalset, "E")
    client, session = _session(service)
    hypervisor = service.devices[0].hypervisor
    channel = hypervisor._session(session.session_id).channel
    before = channel.nonce_watermark
    bogus = SealedMessage(nonce=(99).to_bytes(13, "big"), ciphertext=b"\x00" * 64)
    with pytest.raises(ChannelError, match="nonce is 13 bytes, expected 12"):
        hypervisor.submit_bundle(
            session.session_id, bogus, service.pending_chain_context()
        )
    assert channel.nonce_watermark == before
    report, _, _ = client.pre_execute(service, session, [evalset.transactions[0]])
    assert report.traces[0].status == 1


def test_whatever_fails_mid_bundle_the_core_is_released_and_the_error_unchanged(
    evalset, monkeypatch
):
    """The Hypervisor's one broad catch, pinned to the reason beside it:
    not a fault the planes know how to type — a plain bug inside the
    HEVM — and still the core goes back to the pool scrubbed, and the
    caller sees the very exception that was raised, not a wrapper."""
    service = _service(evalset, "raw")
    client, session = _session(service)
    hypervisor = session.device.hypervisor
    boom = ZeroDivisionError("a bug inside the core")

    def run_bundle(*args, **kwargs):
        assert hypervisor.scheduler.idle_count == len(session.device.cores) - 1
        raise boom

    for core in session.device.cores:
        monkeypatch.setattr(core, "run_bundle", run_bundle)
    with pytest.raises(ZeroDivisionError) as excinfo:
        client.pre_execute(service, session, [evalset.transactions[0]])
    assert excinfo.value is boom
    assert hypervisor.scheduler.idle_count == len(session.device.cores)
    assert not any(core.busy for core in session.device.cores)
    monkeypatch.undo()
    report, _, _ = client.pre_execute(service, session, [evalset.transactions[0]])
    assert report.traces[0].status == 1


def test_cross_session_bundle_rejected(evalset):
    """A bundle sealed under session A cannot be submitted to session B."""
    service = _service(evalset)
    client_a, session_a = _session(service, seed=b"\x0a" * 32)
    client_b, session_b = _session(service, seed=b"\x0b" * 32)
    from repro.hypervisor.bundle_codec import TransactionBundle, encode_bundle

    population = evalset.population
    bundle = TransactionBundle(
        transactions=(evalset.transactions[0],),
        block_number=service.synced_height,
    )
    sealed = session_a.channel.seal(encode_bundle(bundle))
    with pytest.raises(ChannelError):
        service.devices[0].hypervisor.submit_bundle(
            session_b.session_id, sealed, service.pending_chain_context()
        )


def test_memory_overflow_still_returns_partial_report(evalset):
    """An aborted bundle reports the abort instead of crashing the core,
    and the core returns to the pool."""
    service = _service(evalset)
    client, session = _session(service)
    population = evalset.population
    updates = [(i, 1) for i in range(9_000)]
    tx = Transaction(
        sender=population.users[0],
        to=population.rollup_contract,
        data=rollup.rollup_calldata(updates),
        gas_limit=10**9,
    )
    report, _, _ = client.pre_execute(service, session, [tx])
    assert report.aborted
    assert service.devices[0].idle_hevms == service.devices[0].config.hevm_count
    # The next bundle on the same session works fine.
    report, _, _ = client.pre_execute(service, session, [evalset.transactions[0]])
    assert not report.aborted
