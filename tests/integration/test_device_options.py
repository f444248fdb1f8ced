"""Device configuration options exercised end-to-end."""

import pytest

from repro.rlp import codec as rlp
from repro.core.device import DeviceConfig
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.bundle_codec import TransactionBundle, encode_bundle
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.state.blocks import Transaction
from repro.workloads.contracts import erc20, rollup
from tests.hostile import nested_lists


@pytest.fixture(scope="module")
def evalset(request):
    return request.getfixturevalue("tiny_evalset")


def _service(evalset, **config_kwargs):
    return HarDTAPEService(
        evalset.node,
        SecurityFeatures.from_level("full"),
        device_config=DeviceConfig(oram_height=10, **config_kwargs),
        charge_fees=False,
    )


def _session(service):
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x0c" * 32
    )
    return client, client.connect(service)


def test_spill_device_completes_rollups(evalset):
    service = _service(evalset, oversize_policy="spill")
    client, session = _session(service)
    population = evalset.population
    updates = [(i, i + 1) for i in range(9_000)]
    tx = Transaction(
        sender=population.users[0],
        to=population.rollup_contract,
        data=rollup.rollup_calldata(updates),
        gas_limit=10**9,
    )
    report, _, _ = client.pre_execute(service, session, [tx])
    assert not report.aborted
    assert report.traces[0].status == 1


def test_single_hevm_device(evalset):
    service = _service(evalset, hevm_count=1)
    client, session = _session(service)
    assert service.devices[0].idle_hevms == 1
    report, _, _ = client.pre_execute(service, session, [evalset.transactions[0]])
    assert report.traces[0].status == 1
    assert service.devices[0].idle_hevms == 1  # released after the bundle


def test_too_many_hevms_rejected(evalset):
    with pytest.raises(ValueError):
        _service(evalset, hevm_count=4)  # the XCZU15EV fits three


def test_gas_cap_rejects_dos_bundles(evalset):
    from repro.hypervisor.hypervisor import BundleRejected

    service = _service(evalset)
    hypervisor = service.devices[0].hypervisor
    hypervisor.max_bundle_gas = 1_000_000  # a strict SP policy
    client, session = _session(service)
    greedy = Transaction(
        sender=evalset.population.users[0],
        to=evalset.population.token_a,
        data=erc20.balance_of_calldata(evalset.population.users[0]),
        gas_limit=30_000_000,
    )
    with pytest.raises(BundleRejected):
        client.pre_execute(service, session, [greedy])
    # A bundle within the cap still runs, and the core was not leaked
    # by the rejected submission.
    modest = Transaction(
        sender=greedy.sender, to=greedy.to, data=greedy.data, gas_limit=500_000
    )
    report, _, _ = client.pre_execute(service, session, [modest])
    assert report.traces[0].status == 1
    assert service.devices[0].idle_hevms == service.devices[0].config.hevm_count


@pytest.mark.parametrize("level", ["full", "raw"])
def test_wrong_message_shape_is_rejected_before_any_core_is_assigned(
    evalset, level
):
    """The host chooses what it hands `submit_bundle`: raw bytes to an
    encrypting device, or a sealed message to a -raw one, is a typed
    refusal (not an `assert`, which `python -O` strips)."""
    from repro.hypervisor.hypervisor import BundleRejected

    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level(level), charge_fees=False
    )
    device = service.devices[0]
    client, session = _session(service)
    payload = encode_bundle(TransactionBundle(
        transactions=(evalset.transactions[0],),
        block_number=service.synced_height,
    ))
    wrong_shape = payload if level == "full" else session.channel.seal(payload)
    with pytest.raises(BundleRejected, match=type(wrong_shape).__name__):
        service.submit_bundle(device, session.session_id, wrong_shape)
    scheduler = device.hypervisor.scheduler
    assert scheduler.idle_count == device.config.hevm_count
    # Nothing leaked and no nonce was consumed: the right shape still runs.
    report, _, _ = client.pre_execute(service, session, [evalset.transactions[0]])
    assert report.traces[0].status == 1


def _one_transaction(**fields) -> bytes:
    transaction = Transaction(
        **{"sender": b"\x01" * 20, "to": b"\x02" * 20, "gas_limit": 21_000, **fields}
    )
    return encode_bundle(TransactionBundle((transaction,), block_number=0))


@pytest.mark.parametrize("level", ["full", "raw"])
@pytest.mark.parametrize(
    "payload",
    [
        rlp.encode(b"abc"),
        rlp.encode([b"\x01"]),
        rlp.encode([b"\x01", [[b"a", b"b"]]]),
        # 60 KB of list prefixes: no size cap stops it (honest rollup
        # bundles are 39 KB), only the codec's depth bound.
        nested_lists(20_000),
        # Well-formed RLP whose addresses are not 20 bytes (admitted and
        # run before: the bundle completed).
        _one_transaction(sender=b"\x01" * 3),
        _one_transaction(sender=b""),
        _one_transaction(to=b"\x02" * 25),
        # A nonce needs its flag, and a flag is empty or 0x01.
        rlp.encode([b"", [[b"\x01" * 20, b"", b"", b"", b"\x52\x08", b"", b"\x05", b""]]]),
        rlp.encode([b"", [[b"\x01" * 20, b"", b"", b"", b"\x52\x08", b"", b"", b"\x02"]]]),
    ],
    ids=[
        "a-string", "one-field", "short-transaction", "nested-20000-deep",
        "sender-3-bytes", "sender-empty", "to-25-bytes",
        "nonce-without-its-flag", "nonce-flag-0x02",
    ],
)
def test_malformed_bundle_is_rejected_before_any_core_is_assigned(
    evalset, level, payload
):
    """A session holder chooses the bytes inside the channel: RLP of the
    wrong shape is a typed, non-retryable `BundleRejected` (a bare
    `ValueError: not enough values to unpack` before; for the deep one
    a `RecursionError`)."""
    from repro.faults.policy import RetryPolicy
    from repro.hypervisor.hypervisor import BundleRejected

    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level(level), charge_fees=False
    )
    device = service.devices[0]
    client, session = _session(service)
    message = session.channel.seal(payload) if level == "full" else payload
    with pytest.raises(BundleRejected, match="malformed bundle") as refusal:
        service.submit_bundle(device, session.session_id, message)
    assert not RetryPolicy().is_recoverable(refusal.value)
    scheduler = device.hypervisor.scheduler
    assert scheduler.stats.bundles_started == 0
    assert scheduler.idle_count == device.config.hevm_count
    # The session survives its own bad bundle.
    report, _, _ = client.pre_execute(service, session, [evalset.transactions[0]])
    assert report.traces[0].status == 1


def test_exhausted_core_pool_is_a_typed_refusal(evalset):
    """Every core assigned elsewhere: `submit_bundle` raises the typed
    `SchedulingError` (an `assert` before — a `TypeError` under
    `python -O`) and takes nothing from the pool."""
    from repro.hypervisor.scheduler import SchedulingError

    service = _service(evalset)
    device = service.devices[0]
    client, session = _session(service)
    scheduler = device.hypervisor.scheduler
    held = [
        scheduler.acquire(b"other-session", 0.0).core
        for _ in range(device.config.hevm_count)
    ]
    with pytest.raises(SchedulingError, match="exhausted"):
        client.pre_execute(service, session, [evalset.transactions[0]])
    for core in held:
        scheduler.release(core)
    assert scheduler.idle_count == device.config.hevm_count
