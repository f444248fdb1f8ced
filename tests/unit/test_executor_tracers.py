"""Transaction executor, logs, precompiles, and tracers."""

import pytest

from repro.evm.exceptions import InvalidTransaction
from repro.evm.executor import execute_transaction
from repro.evm.tracer import CountingTracer, MultiTracer, StructTracer
from repro.state.account import to_address
from repro.state.blocks import Transaction
from repro.state.journal import JournaledState
from repro.workloads.asm import assemble, push

from tests.conftest import ALICE, BOB, COINBASE

TARGET = to_address(0xE0)


def test_plain_transfer_costs_21000(state, chain):
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=BOB, value=1)
    )
    assert result.success and result.gas_used == 21_000
    assert state.get_balance(BOB) == 10**18 + 1


def test_fees_move_to_coinbase(state, chain):
    before = state.get_balance(COINBASE)
    execute_transaction(
        state, chain, Transaction(sender=ALICE, to=BOB, value=0, gas_price=3)
    )
    assert state.get_balance(COINBASE) == before + 21_000 * 3


def test_charge_fees_false_skips_fees(state, chain):
    alice_before = state.get_balance(ALICE)
    execute_transaction(
        state,
        chain,
        Transaction(sender=ALICE, to=BOB, value=0),
        charge_fees=False,
    )
    assert state.get_balance(ALICE) == alice_before


def test_nonce_increments(state, chain):
    execute_transaction(state, chain, Transaction(sender=ALICE, to=BOB))
    assert state.get_nonce(ALICE) == 1


def test_nonce_mismatch_rejected(state, chain):
    with pytest.raises(InvalidTransaction):
        execute_transaction(
            state, chain, Transaction(sender=ALICE, to=BOB, nonce=5)
        )


def test_explicit_matching_nonce_accepted(state, chain):
    execute_transaction(state, chain, Transaction(sender=ALICE, to=BOB, nonce=0))
    execute_transaction(state, chain, Transaction(sender=ALICE, to=BOB, nonce=1))
    assert state.get_nonce(ALICE) == 2


def test_insufficient_balance_rejected(backend, chain):
    poor = to_address(0x99)
    backend.ensure(poor).balance = 10
    state = JournaledState(backend)
    with pytest.raises(InvalidTransaction):
        execute_transaction(
            state, chain, Transaction(sender=poor, to=BOB, value=10**9)
        )


def test_gas_limit_below_intrinsic_rejected(state, chain):
    with pytest.raises(InvalidTransaction):
        execute_transaction(
            state,
            chain,
            Transaction(sender=ALICE, to=BOB, data=b"\x01" * 100, gas_limit=21_000),
        )


def test_failed_tx_keeps_nonce_and_fees(backend, chain):
    backend.ensure(TARGET).code = assemble(["INVALID"])
    state = JournaledState(backend)
    alice_before = state.get_balance(ALICE)
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=TARGET, gas_limit=100_000)
    )
    assert not result.success
    assert state.get_nonce(ALICE) == 1
    assert state.get_balance(ALICE) == alice_before - 100_000  # all gas burned


def test_sstore_refund_applied(backend, chain):
    # Clearing a non-zero slot refunds 4800, capped at gas_used / 5.
    backend.ensure(TARGET).code = assemble(push(0) + push(1) + ["SSTORE"])
    backend.ensure(TARGET).storage[1] = 99
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=TARGET, gas_limit=100_000)
    )
    assert result.success
    no_refund_cost = 21_000 + 5 + 2_100 + 2_900  # base + push + cold + reset
    assert result.gas_used < no_refund_cost
    assert result.gas_used >= no_refund_cost * 4 // 5  # 20% refund cap


def test_contract_creation_transaction(backend, chain):
    from repro.workloads.asm import deployer

    runtime = assemble(["STOP"])
    state = JournaledState(backend)
    result = execute_transaction(
        state,
        chain,
        Transaction(sender=ALICE, to=None, data=deployer(runtime)),
    )
    assert result.success
    assert result.created_address is not None
    assert state.get_code(result.created_address) == runtime
    assert state.get_nonce(result.created_address) == 1


def test_logs_collected(backend, chain):
    program = assemble(
        push(0xAA) + ["PUSH0", "MSTORE"]
        + push(0x1111) + push(32) + ["PUSH0", "LOG1", "STOP"]
    )
    backend.ensure(TARGET).code = program
    state = JournaledState(backend)
    result = execute_transaction(state, chain, Transaction(sender=ALICE, to=TARGET))
    assert len(result.logs) == 1
    log = result.logs[0]
    assert log.address == TARGET
    assert log.topics == [0x1111]
    assert int.from_bytes(log.data, "big") == 0xAA


def test_write_set_reported(backend, chain):
    backend.ensure(TARGET).code = assemble(push(7) + push(3) + ["SSTORE"])
    state = JournaledState(backend)
    result = execute_transaction(state, chain, Transaction(sender=ALICE, to=TARGET))
    assert result.write_set is not None
    assert result.write_set.storage[(TARGET, 3)] == 7


# -- precompiles -------------------------------------------------------------


def test_sha256_precompile(backend, chain):
    import hashlib

    state = JournaledState(backend)
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=to_address(2), data=b"abc")
    )
    assert result.success
    assert result.return_data == hashlib.sha256(b"abc").digest()


def test_identity_precompile(backend, chain):
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=to_address(4), data=b"hello")
    )
    assert result.return_data == b"hello"


def test_ecrecover_precompile_valid_signature(backend, chain):
    import hashlib

    from repro.crypto.ecc import PrivateKey

    sk = PrivateKey.from_bytes(b"\x11" * 32)
    digest = hashlib.sha256(b"tx body").digest()
    sig = sk.sign(digest)
    calldata = (
        digest
        + (27).to_bytes(32, "big")
        + sig.r.to_bytes(32, "big")
        + sig.s.to_bytes(32, "big")
        + sk.public_key().to_bytes()
    )
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=to_address(1), data=calldata)
    )
    assert result.success
    assert result.return_data != b""
    assert result.return_data[:12] == b"\x00" * 12


def test_ecrecover_precompile_garbage_returns_empty(backend, chain):
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=to_address(1), data=b"\x00" * 10)
    )
    assert result.success
    assert result.return_data == b""


def test_any_precompile_error_is_a_failed_call_that_burns_the_gas(
    backend, chain, monkeypatch
):
    """The interpreter's broad catch, pinned to the reason beside it:
    calldata is attacker-chosen, so whatever a precompile raises — here
    not even a typed error — is a failed call: all gas burnt, the value
    transfer reverted, the transaction itself still traced to the end."""
    from repro.evm import interpreter

    def broken(data):
        raise ZeroDivisionError("a bug a crafted input reached")

    monkeypatch.setitem(interpreter.PRECOMPILES, to_address(2), broken)
    state = JournaledState(backend)
    before = state.get_balance(ALICE)
    result = execute_transaction(
        state, chain,
        Transaction(sender=ALICE, to=to_address(2), data=b"abc", value=5,
                    gas_limit=100_000),
        charge_fees=False,
    )
    assert not result.success and result.error == "precompile failure"
    assert result.gas_used == 100_000 and result.return_data == b""
    assert state.get_balance(ALICE) == before
    assert state.get_balance(to_address(2)) == 0


# -- tracers --------------------------------------------------------------------


def _traced_run(backend, chain, tracer):
    backend.ensure(TARGET).code = assemble(
        push(1) + push(2) + ["ADD"] + push(0) + ["SSTORE", "STOP"]
    )
    state = JournaledState(backend)
    return execute_transaction(
        state, chain, Transaction(sender=ALICE, to=TARGET), tracer=tracer
    )


def test_struct_tracer_records_steps(backend, chain):
    tracer = StructTracer()
    _traced_run(backend, chain, tracer)
    ops = [log.op for log in tracer.logs]
    assert ops == ["PUSH1", "PUSH1", "ADD", "PUSH0", "SSTORE", "STOP"]
    assert tracer.logs[0].pc == 0
    assert tracer.logs[2].stack == [1, 2]
    assert tracer.logs[0].depth == 1


def test_struct_tracer_gas_decreases(backend, chain):
    tracer = StructTracer()
    _traced_run(backend, chain, tracer)
    gas_values = [log.gas for log in tracer.logs]
    assert gas_values == sorted(gas_values, reverse=True)


def test_struct_log_to_dict(backend, chain):
    tracer = StructTracer()
    _traced_run(backend, chain, tracer)
    entry = tracer.logs[2].to_dict()
    assert entry["op"] == "ADD"
    assert entry["stack"] == ["0x1", "0x2"]


def test_counting_tracer_groups(backend, chain):
    tracer = CountingTracer()
    _traced_run(backend, chain, tracer)
    counts = tracer.counts
    assert counts.instructions == 6
    assert counts.by_group["stack"] == 3  # two PUSH1 + PUSH0
    assert counts.by_group["arithmetic"] == 1
    assert counts.storage_writes == 1
    assert counts.frames == 1


def test_multi_tracer_fans_out(backend, chain):
    struct, counting = StructTracer(), CountingTracer()
    _traced_run(backend, chain, MultiTracer(struct, counting))
    assert len(struct.logs) == counting.counts.instructions
