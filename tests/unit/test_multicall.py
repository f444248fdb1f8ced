"""The multicall batch executor (wide call trees)."""

import pytest

from repro.evm.executor import execute_transaction
from repro.evm.tracer import CallTracer
from repro.state.account import to_address
from repro.state.blocks import Transaction
from repro.state.journal import JournaledState
from repro.workloads.contracts import erc20
from repro.workloads.contracts.multicall import (
    multicall_calldata,
    multicall_runtime,
)
from repro.workloads.contracts.profile import profile_calldata, profile_runtime

from tests.conftest import ALICE

MULTI = to_address(0x4CA1)
TOKEN = to_address(0x70CE)


@pytest.fixture
def setup(backend):
    backend.ensure(MULTI).code = multicall_runtime()
    backend.ensure(TOKEN).code = erc20.erc20_runtime()
    profiles = [to_address(0x5100 + i) for i in range(3)]
    for address in profiles:
        backend.ensure(address).code = profile_runtime()
    return backend, profiles


def test_empty_batch(setup, chain):
    backend, _ = setup
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain,
        Transaction(sender=ALICE, to=MULTI, data=multicall_calldata([])),
    )
    assert result.success, result.error
    assert int.from_bytes(result.return_data, "big") == 0


def test_single_call(setup, chain):
    backend, profiles = setup
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain,
        Transaction(
            sender=ALICE, to=MULTI,
            data=multicall_calldata(
                [(profiles[0], profile_calldata(2, 10))]
            ),
        ),
    )
    assert result.success, result.error
    assert state.get_storage(profiles[0], 10) == 1
    assert state.get_storage(profiles[0], 11) == 1


def test_fan_out_across_targets(setup, chain):
    backend, profiles = setup
    calls = [
        (address, profile_calldata(1, index * 100))
        for index, address in enumerate(profiles)
    ]
    tracer = CallTracer()
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain,
        Transaction(sender=ALICE, to=MULTI, data=multicall_calldata(calls)),
        tracer=tracer,
    )
    assert result.success, result.error
    assert int.from_bytes(result.return_data, "big") == 3
    for index, address in enumerate(profiles):
        assert state.get_storage(address, index * 100) == 1
    # Wide tree: three sibling frames, depth only 2.
    assert tracer.max_depth == 2
    assert len(tracer.root.calls) == 3


def test_mixed_calldata_sizes(setup, chain):
    """Records of different (non-word-aligned) lengths parse correctly."""
    backend, profiles = setup
    calls = [
        (TOKEN, erc20.mint_calldata(ALICE, 500)),       # 68 bytes
        (profiles[0], profile_calldata(1, 7)),          # 96 bytes
        (TOKEN, erc20.transfer_calldata(profiles[1], 123)),
    ]
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain,
        Transaction(sender=ALICE, to=MULTI, data=multicall_calldata(calls)),
    )
    assert result.success, result.error
    # The token calls ran with MULTI as msg.sender: mint credited ALICE,
    # transfer moved from MULTI's (empty) balance and so reverted — but
    # multicall ignores per-call failure and continues.
    assert state.get_storage(TOKEN, erc20.balance_slot(ALICE)) == 500
    assert state.get_storage(profiles[0], 7) == 1


def test_failed_subcall_does_not_stop_batch(setup, chain):
    backend, profiles = setup
    backend.ensure(TOKEN).storage[erc20.balance_slot(MULTI)] = 10
    calls = [
        (TOKEN, erc20.transfer_calldata(ALICE, 10**9)),  # reverts
        (profiles[2], profile_calldata(1, 55)),          # still runs
    ]
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain,
        Transaction(sender=ALICE, to=MULTI, data=multicall_calldata(calls)),
    )
    assert result.success
    assert state.get_storage(profiles[2], 55) == 1
    # The reverted transfer moved nothing.
    assert state.get_storage(TOKEN, erc20.balance_slot(MULTI)) == 10
