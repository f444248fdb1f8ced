"""Empirical security: obliviousness, swap noise, level ordering, overflow."""

import pytest

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.security.analysis import (
    frequency_attack,
    path_uniformity_pvalue,
    size_leakage,
)
from repro.security.observer import AccessPatternObserver
from repro.state.blocks import Transaction
from repro.workloads.contracts import erc20, rollup


@pytest.fixture(scope="module")
def evalset(request):
    return request.getfixturevalue("tiny_evalset")


def _service(evalset, level="full"):
    return HarDTAPEService(
        evalset.node, SecurityFeatures.from_level(level), charge_fees=False
    )


def _session(service, seed=b"\x05" * 32):
    client = PreExecutionClient(service.manufacturer.root_public_key, rng_seed=seed)
    return client, client.connect(service)


# -- A7: query obliviousness ---------------------------------------------------


def test_oram_paths_uniform_under_skewed_workload(evalset):
    """A maximally skewed logical workload yields uniform physical paths."""
    service = _service(evalset)
    observer = AccessPatternObserver().attach(service.oram_server)
    client, session = _session(service)
    population = evalset.population
    user = population.users[0]
    observer.clear()
    # Hammer ONE token's balanceOf over and over: logical pattern is a
    # point mass, physical pattern must still look uniform.
    tx = Transaction(
        sender=user, to=population.token_a,
        data=erc20.balance_of_calldata(user),
    )
    for _ in range(30):
        client.pre_execute(service, session, [tx])
    leaves = observer.leaves
    assert len(leaves) >= 80
    assert path_uniformity_pvalue(leaves, service.oram_server.leaf_count, bins=8) > 0.01


def test_identical_bundles_produce_different_paths(evalset):
    service = _service(evalset)
    observer = AccessPatternObserver().attach(service.oram_server)
    client, session = _session(service)
    tx = evalset.transactions[0]
    observer.clear()
    client.pre_execute(service, session, [tx])
    first = list(observer.leaves)
    observer.clear()
    client.pre_execute(service, session, [tx])
    second = list(observer.leaves)
    # Same logical queries, fresh random paths (remap on every access).
    assert first != second


def test_frequency_attack_fails_against_oram(evalset):
    """The §I co-occurrence attack: works on handles, not on paths."""
    service = _service(evalset)
    observer = AccessPatternObserver().attach(service.oram_server)
    client, session = _session(service)
    population = evalset.population
    user = population.users[0]
    observer.clear()
    # Token A queried 10x more than token B: frequency signal exists
    # logically but must not be recoverable from the trace.
    tx_a = Transaction(sender=user, to=population.token_a,
                       data=erc20.balance_of_calldata(user))
    tx_b = Transaction(sender=user, to=population.token_b,
                       data=erc20.balance_of_calldata(user))
    for _ in range(10):
        client.pre_execute(service, session, [tx_a])
    client.pre_execute(service, session, [tx_b])
    # The adversary's best handle is the physical leaf id.
    handles = [leaf.to_bytes(4, "big") for leaf in observer.leaves]
    accuracy = frequency_attack(handles, [b"tokenA-page", b"tokenB-page"])
    assert accuracy == 0.0


# -- A5: swap-pattern noise --------------------------------------------------------


def _deep_recursion_swaps(noise: bool):
    """Drive the L2 ring into swapping and collect the bus events."""
    from repro.crypto.kdf import Drbg
    from repro.hardware.memory_layers import Layer2CallStack

    l2 = Layer2CallStack(
        capacity_bytes=128 * 1024, rng=Drbg(b"n"), noise_enabled=noise
    )
    events = []
    sizes = [34, 40, 36, 50, 34, 42, 38, 44]
    for size_kb in sizes:
        events += l2.push_frame(size_kb * 1024)
    for _ in sizes:
        events += l2.pop_frame()
    return events


def test_swap_noise_hides_frame_sizes():
    leaky = _deep_recursion_swaps(noise=False)
    noisy = _deep_recursion_swaps(noise=True)
    leak_plain = size_leakage(
        [e.real_pages for e in leaky], [e.page_count for e in leaky]
    )
    leak_noisy = size_leakage(
        [e.real_pages for e in noisy], [e.page_count for e in noisy]
    )
    assert leak_plain == pytest.approx(1.0)  # exact counts leak everything
    assert leak_noisy < leak_plain  # noise strictly reduces leakage


# -- Figure 4 ordering: more security, more time -------------------------------------


def test_security_levels_monotone_in_time(evalset):
    tx = evalset.transactions[0]
    times = {}
    for level in ("raw", "E", "ES", "ESO", "full"):
        service = _service(evalset, level)
        client, session = _session(service, seed=b"\x06" * 32)
        _, elapsed, _ = client.pre_execute(service, session, [tx])
        times[level] = elapsed
    assert times["raw"] < times["E"] < times["ES"] < times["ESO"] < times["full"]
    # The paper's big jumps: signatures and ORAM dominate.
    assert times["ES"] - times["E"] > 50_000  # ~80 ms of ECDSA
    assert times["full"] - times["ES"] > 10_000  # ORAM round trips


# -- rollups: Memory Overflow Error ----------------------------------------------------


def test_rollup_aborts_with_memory_overflow(evalset):
    service = _service(evalset)
    client, session = _session(service)
    population = evalset.population
    # A batch big enough to exceed half of the 1 MB layer-2 ring:
    # frame base 33 KB + calldata copied to Memory > 512 KB.
    updates = [(i, i + 1) for i in range(8000)]  # 8000*64B = 512 KB
    tx = Transaction(
        sender=population.users[0],
        to=population.rollup_contract,
        data=rollup.rollup_calldata(updates),
        gas_limit=300_000_000,
    )
    report, _, _ = client.pre_execute(service, session, [tx])
    assert report.aborted
    assert "page" in (report.abort_reason or "")


def test_small_rollup_fits(evalset):
    service = _service(evalset)
    client, session = _session(service)
    population = evalset.population
    updates = [(i, i + 1) for i in range(50)]
    tx = Transaction(
        sender=population.users[0],
        to=population.rollup_contract,
        data=rollup.rollup_calldata(updates),
    )
    report, _, _ = client.pre_execute(service, session, [tx])
    assert not report.aborted
    assert report.traces[0].status == 1


# -- multi-device ORAM key sharing ------------------------------------------------------


def test_devices_share_oram_key(evalset):
    service = HarDTAPEService(
        evalset.node,
        SecurityFeatures.from_level("full"),
        device_count=2,
        charge_fees=False,
    )
    key_a = service.devices[0].hypervisor.oram_key
    key_b = service.devices[1].hypervisor.oram_key
    assert key_a == key_b  # stateless ORAM shared across devices
