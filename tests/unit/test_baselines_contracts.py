"""Baselines (Geth, TSC-VEE) and the workload contract library."""

import pytest

from repro.baselines.geth import GethSimulator
from repro.baselines.tscvee import TscVeeSimulator, UnsupportedContractCall
from repro.evm.executor import execute_transaction
from repro.state.account import to_address
from repro.state.blocks import Transaction
from repro.state.journal import JournaledState
from repro.workloads.contracts import dex, erc20, honeypot, rollup
from repro.workloads.contracts.profile import profile_calldata, profile_runtime

from tests.conftest import ALICE

TOKEN = to_address(0x70CE)


@pytest.fixture
def token_backend(backend):
    backend.ensure(TOKEN).code = erc20.erc20_runtime()
    return backend


# -- Geth baseline ------------------------------------------------------------


def test_geth_executes_and_times(token_backend, chain):
    geth = GethSimulator(token_backend)
    run = geth.execute(chain, Transaction(
        sender=ALICE, to=TOKEN, data=erc20.mint_calldata(ALICE, 100)
    ))
    assert run.result.success
    assert run.time_us > 0
    assert run.counts.get("storage", 0) >= 2  # balance + total supply


def test_geth_state_persists_across_calls(token_backend, chain):
    geth = GethSimulator(token_backend)
    geth.execute(chain, Transaction(
        sender=ALICE, to=TOKEN, data=erc20.mint_calldata(ALICE, 100)
    ))
    run = geth.execute(chain, Transaction(
        sender=ALICE, to=TOKEN, data=erc20.balance_of_calldata(ALICE)
    ))
    assert int.from_bytes(run.result.return_data, "big") == 100
    geth.reset_state()
    run = geth.execute(chain, Transaction(
        sender=ALICE, to=TOKEN, data=erc20.balance_of_calldata(ALICE)
    ))
    assert int.from_bytes(run.result.return_data, "big") == 0


def test_geth_fixed_cost_dominates_small_tx(token_backend, chain):
    geth = GethSimulator(token_backend)
    run = geth.execute(chain, Transaction(sender=ALICE, to=to_address(0xB0B)))
    from repro.hardware.timing import CostModel

    assert run.time_us >= CostModel().geth_tx_fixed_us


# -- TSC-VEE baseline -------------------------------------------------------------


def test_tscvee_single_contract_works(token_backend, chain):
    vee = TscVeeSimulator(token_backend, contract=TOKEN)
    run = vee.execute(chain, Transaction(
        sender=ALICE, to=TOKEN, data=erc20.mint_calldata(ALICE, 5)
    ))
    assert run.result.success
    # First call pays the prefetch; later calls do not.
    second = vee.execute(chain, Transaction(
        sender=ALICE, to=TOKEN, data=erc20.balance_of_calldata(ALICE)
    ))
    assert second.time_us < run.time_us


def test_tscvee_rejects_foreign_target(token_backend, chain):
    vee = TscVeeSimulator(token_backend, contract=TOKEN)
    with pytest.raises(UnsupportedContractCall):
        vee.execute(chain, Transaction(sender=ALICE, to=to_address(0x999)))


def test_tscvee_rejects_cross_contract_call(backend, chain):
    # A DEX calling out to tokens is exactly what TSC-VEE cannot do.
    token_a, token_b, pool = to_address(0xA0), to_address(0xB0), to_address(0xD0)
    backend.ensure(token_a).code = erc20.erc20_runtime()
    backend.ensure(token_b).code = erc20.erc20_runtime()
    backend.ensure(pool).code = dex.dex_runtime(token_a, token_b)
    backend.ensure(pool).storage.update({0: 1000, 1: 1000})
    vee = TscVeeSimulator(backend, contract=pool)
    with pytest.raises(UnsupportedContractCall):
        vee.execute(chain, Transaction(
            sender=ALICE, to=pool, data=dex.swap_calldata(10)
        ))


# -- contract library ----------------------------------------------------------------


def _run(backend, chain, to, data, sender=ALICE, value=0):
    state = JournaledState(backend)
    return execute_transaction(
        state, chain, Transaction(sender=sender, to=to, data=data, value=value)
    ), state


def test_profile_runtime_padding():
    assert len(profile_runtime(pad_to_bytes=4096)) == 4096
    with pytest.raises(ValueError):
        profile_runtime(pad_to_bytes=10)


def test_profile_contract_touches_requested_slots(backend, chain):
    target = to_address(0x51)
    backend.ensure(target).code = profile_runtime()
    result, state = _run(backend, chain, target, profile_calldata(5, 100))
    assert result.success, result.error
    for slot in range(100, 105):
        assert state.get_storage(target, slot) == 1
    assert state.get_storage(target, 105) == 0


def test_profile_contract_chain_depth(backend, chain):
    from repro.evm.tracer import CallTracer

    contracts = [to_address(0x51 + i) for i in range(4)]
    for address in contracts:
        backend.ensure(address).code = profile_runtime()
    tracer = CallTracer()
    state = JournaledState(backend)
    result = execute_transaction(
        state,
        chain,
        Transaction(
            sender=ALICE,
            to=contracts[0],
            data=profile_calldata(1, 0, chain=contracts[1:]),
        ),
        tracer=tracer,
    )
    assert result.success
    assert tracer.max_depth == 4


def test_erc20_full_lifecycle(token_backend, chain):
    state = JournaledState(token_backend)

    def call(data, sender=ALICE):
        return execute_transaction(
            state, chain, Transaction(sender=sender, to=TOKEN, data=data)
        )

    bob = to_address(0xB0B)
    assert call(erc20.mint_calldata(ALICE, 1000)).success
    assert call(erc20.transfer_calldata(bob, 400)).success
    result = call(erc20.balance_of_calldata(bob))
    assert int.from_bytes(result.return_data, "big") == 400
    result = call(erc20.total_supply_calldata())
    assert int.from_bytes(result.return_data, "big") == 1000
    # Transfer event uses the real Solidity topic.
    result = call(erc20.transfer_calldata(bob, 1))
    assert result.logs[0].topics[0] == erc20.TRANSFER_EVENT_SIG
    # Over-balance transfer reverts.
    assert not call(erc20.transfer_calldata(bob, 10**9)).success
    # Unknown selector reverts.
    assert not call(b"\xde\xad\xbe\xef").success


def test_erc20_storage_layout_is_solidity(token_backend, chain):
    state = JournaledState(token_backend)
    execute_transaction(
        state, chain,
        Transaction(sender=ALICE, to=TOKEN, data=erc20.mint_calldata(ALICE, 77)),
    )
    assert state.get_storage(TOKEN, erc20.balance_slot(ALICE)) == 77


def test_dex_swap_constant_product(backend, chain):
    token_a, token_b, pool = to_address(0xA0), to_address(0xB0), to_address(0xD0)
    backend.ensure(token_a).code = erc20.erc20_runtime()
    backend.ensure(token_b).code = erc20.erc20_runtime()
    backend.ensure(pool).code = dex.dex_runtime(token_a, token_b)
    backend.ensure(pool).storage.update({0: 50_000, 1: 80_000})
    state = JournaledState(backend)

    def call(to, data, sender=ALICE):
        return execute_transaction(
            state, chain, Transaction(sender=sender, to=to, data=data)
        )

    assert call(token_a, erc20.mint_calldata(ALICE, 10_000)).success
    assert call(token_b, erc20.mint_calldata(pool, 80_000)).success
    assert call(token_a, erc20.approve_calldata(pool, 10_000)).success
    result = call(pool, dex.swap_calldata(5_000))
    assert result.success, result.error
    out = int.from_bytes(result.return_data, "big")
    assert out == dex.expected_output(5_000, 50_000, 80_000)
    assert state.get_storage(pool, 0) == 55_000
    assert state.get_storage(pool, 1) == 80_000 - out
    # Without approval the swap reverts.
    result = call(pool, dex.swap_calldata(100, a_for_b=False))
    assert not result.success


def test_dex_reserves_getter(backend, chain):
    token_a, token_b, pool = to_address(0xA0), to_address(0xB0), to_address(0xD0)
    backend.ensure(pool).code = dex.dex_runtime(token_a, token_b)
    backend.ensure(pool).storage.update({0: 11, 1: 22})
    result, _ = _run(backend, chain, pool, dex.reserves_calldata())
    assert int.from_bytes(result.return_data[:32], "big") == 11
    assert int.from_bytes(result.return_data[32:], "big") == 22


def test_rollup_batch_updates(backend, chain):
    contract = to_address(0x0110)
    backend.ensure(contract).code = rollup.rollup_runtime()
    updates = [(i * 3, i + 1) for i in range(100)]
    result, state = _run(backend, chain, contract, rollup.rollup_calldata(updates))
    assert result.success
    for key, value in updates:
        assert state.get_storage(contract, key) == value


def test_rollup_memory_grows_with_batch(backend, chain):
    from repro.evm.tracer import CallTracer

    contract = to_address(0x0110)
    backend.ensure(contract).code = rollup.rollup_runtime()
    tracer = CallTracer()
    state = JournaledState(backend)
    updates = [(i, 1) for i in range(500)]
    execute_transaction(
        state,
        chain,
        Transaction(
            sender=ALICE, to=contract, data=rollup.rollup_calldata(updates),
            gas_limit=60_000_000,
        ),
        tracer=tracer,
    )
    # 500 pairs * 64 B + 32 B of calldata are copied into Memory.
    assert tracer.footprints[0].memory >= 500 * 64 + 32


def test_honeypot_traps_victims(backend, chain):
    contract = to_address(0xBAD)
    owner = to_address(0x0DD)
    backend.ensure(contract).code = honeypot.honeypot_runtime()
    backend.ensure(contract).storage[honeypot.OWNER_SLOT] = int.from_bytes(
        owner, "big"
    )
    backend.ensure(owner).balance = 10**18
    state = JournaledState(backend)

    def call(data, sender, value=0):
        return execute_transaction(
            state, chain,
            Transaction(sender=sender, to=contract, data=data, value=value),
        )

    assert call(honeypot.deposit_calldata(), ALICE, value=1000).success
    assert not call(honeypot.withdraw_calldata(), ALICE).success  # trapped
    assert call(honeypot.deposit_calldata(), owner, value=10).success
    assert call(honeypot.withdraw_calldata(), owner).success  # owner exits
