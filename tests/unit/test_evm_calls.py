"""CALL-RETURN semantics: subcalls, creates, static contexts, selfdestruct."""


from repro.rlp import codec as rlp
from repro.crypto.keccak import keccak256
from repro.evm.executor import execute_transaction
from repro.evm.tracer import CallTracer
from repro.state.account import to_address
from repro.state.blocks import Transaction
from repro.state.journal import JournaledState
from repro.workloads.asm import assemble, deployer, push

from tests.conftest import ALICE

CALLER_C = to_address(0xCA)
CALLEE_C = to_address(0xCB)


def _store42_and_return_7():
    """Callee: slot0 := 42; return 7."""
    return assemble(
        push(42) + push(0) + ["SSTORE"]
        + push(7) + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )


def _call_program(kind: str, value: int = 0):
    """Caller: <kind> CALLEE, copy 32 ret bytes, return them."""
    value_ops = push(value) if kind in ("CALL", "CALLCODE") else []
    return assemble(
        push(32) + push(0)          # retLen, retOff (pushed reversed below)
        + push(0) + push(0)         # argsLen, argsOff
        + value_ops
        + ["PUSH20", int.from_bytes(CALLEE_C, "big"), "GAS", kind]
        + ["PUSH0", "MSTORE"]       # store success flag at 0
        # RETURNDATACOPY(dest=32, offset=0, len=32): push len, offset, dest.
        + push(32) + push(0) + push(32) + ["RETURNDATACOPY"]
        + push(64) + push(0) + ["RETURN"]
    )


def _setup(backend, kind, value=0):
    backend.ensure(CALLER_C).code = _call_program(kind, value)
    backend.ensure(CALLEE_C).code = _store42_and_return_7()
    backend.ensure(CALLER_C).balance = 10**6


def _run(backend, chain, tracer=None, value=0):
    state = JournaledState(backend)
    result = execute_transaction(
        state,
        chain,
        Transaction(sender=ALICE, to=CALLER_C, value=value),
        tracer=tracer,
    )
    return result, state


def _parse(result):
    success = int.from_bytes(result.return_data[:32], "big")
    ret = int.from_bytes(result.return_data[32:64], "big")
    return success, ret


def test_call_writes_callee_storage(backend, chain):
    _setup(backend, "CALL")
    result, state = _run(backend, chain)
    assert result.success, result.error
    success, ret = _parse(result)
    assert success == 1 and ret == 7
    assert state.get_storage(CALLEE_C, 0) == 42
    assert state.get_storage(CALLER_C, 0) == 0


def test_callcode_runs_in_caller_context(backend, chain):
    _setup(backend, "CALLCODE")
    result, state = _run(backend, chain)
    success, ret = _parse(result)
    assert success == 1 and ret == 7
    # Storage write lands in the CALLER's storage.
    assert state.get_storage(CALLER_C, 0) == 42
    assert state.get_storage(CALLEE_C, 0) == 0


def test_delegatecall_preserves_caller_and_value(backend, chain):
    callee = assemble(
        ["CALLER", "PUSH0", "MSTORE", "CALLVALUE"]
        + push(32) + ["MSTORE"]
        + push(64) + ["PUSH0", "RETURN"]
    )
    backend.ensure(CALLEE_C).code = callee
    backend.ensure(CALLER_C).code = assemble(
        push(64) + push(0) + push(0) + push(0)
        + ["PUSH20", int.from_bytes(CALLEE_C, "big"), "GAS", "DELEGATECALL", "POP"]
        + push(64) + push(0) + push(0) + ["RETURNDATACOPY"]
        + push(64) + push(0) + ["RETURN"]
    )
    result, _ = _run(backend, chain, value=55)
    observed_caller = result.return_data[12:32]
    observed_value = int.from_bytes(result.return_data[32:64], "big")
    assert observed_caller == ALICE  # original caller, not CALLER_C
    assert observed_value == 55  # original value propagates


def test_staticcall_blocks_writes(backend, chain):
    _setup(backend, "STATICCALL")
    result, state = _run(backend, chain)
    success, _ = _parse(result)
    assert success == 0  # callee SSTORE hit WriteProtection
    assert state.get_storage(CALLEE_C, 0) == 0


def test_call_with_value_transfers(backend, chain):
    _setup(backend, "CALL", value=100)
    result, state = _run(backend, chain)
    success, _ = _parse(result)
    assert success == 1
    assert state.get_balance(CALLEE_C) == 100
    assert state.get_balance(CALLER_C) == 10**6 - 100


def test_call_insufficient_balance_fails_cleanly(backend, chain):
    _setup(backend, "CALL", value=10**9)  # caller only has 10**6
    result, state = _run(backend, chain)
    success, _ = _parse(result)
    assert success == 0
    assert state.get_balance(CALLEE_C) == 0


def test_failed_subcall_reverts_only_callee_state(backend, chain):
    # Callee writes then reverts; caller write must survive.
    backend.ensure(CALLEE_C).code = assemble(
        push(1) + push(0) + ["SSTORE", "PUSH0", "PUSH0", "REVERT"]
    )
    backend.ensure(CALLER_C).code = assemble(
        push(9) + push(1) + ["SSTORE"]  # caller's own write
        + push(0) + push(0) + push(0) + push(0) + push(0)
        + ["PUSH20", int.from_bytes(CALLEE_C, "big"), "GAS", "CALL"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    result, state = _run(backend, chain)
    assert int.from_bytes(result.return_data, "big") == 0  # subcall failed
    assert state.get_storage(CALLER_C, 1) == 9
    assert state.get_storage(CALLEE_C, 0) == 0


def test_call_depth_recorded_by_tracer(backend, chain):
    _setup(backend, "CALL")
    tracer = CallTracer()
    _run(backend, chain, tracer=tracer)
    assert tracer.max_depth == 2
    assert tracer.root is not None
    assert tracer.root.calls[0].to == CALLEE_C


def test_returndata_out_of_bounds_fails(backend, chain):
    backend.ensure(CALLER_C).code = assemble(
        push(32) + push(0) + push(0) + ["RETURNDATACOPY"]
    )
    result, _ = _run(backend, chain)
    assert not result.success
    assert "ReturnData" in result.error


# -- CREATE -----------------------------------------------------------------


def test_create_deploys_runtime(backend, chain):
    runtime = assemble(push(1) + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"])
    init = deployer(runtime)
    creator = assemble(
        _memory_store_ops(init)
        + push(len(init)) + push(0) + push(0) + ["CREATE"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    backend.ensure(CALLER_C).code = creator
    result, state = _run(backend, chain)
    assert result.success, result.error
    new_address = to_address(int.from_bytes(result.return_data, "big"))
    assert new_address != to_address(0)
    assert state.get_code(new_address) == runtime
    # Address follows the rlp([sender, nonce]) rule (CALLER_C was seeded
    # with nonce 0, so its first CREATE uses nonce 0).
    expected = to_address(
        keccak256(rlp.encode([CALLER_C, rlp.encode_uint(0)]))
    )
    assert new_address == expected


def _memory_store_ops(data: bytes):
    ops = []
    for offset in range(0, len(data), 32):
        chunk = data[offset:offset + 32].ljust(32, b"\x00")
        ops += ["PUSH32", int.from_bytes(chunk, "big")] + push(offset) + ["MSTORE"]
    return ops


def test_create2_address_is_salt_derived(backend, chain):
    runtime = assemble(["STOP"])
    init = deployer(runtime)
    salt = 0x1234
    creator = assemble(
        _memory_store_ops(init)
        + push(salt) + push(len(init)) + push(0) + push(0) + ["CREATE2"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    backend.ensure(CALLER_C).code = creator
    result, state = _run(backend, chain)
    new_address = to_address(int.from_bytes(result.return_data, "big"))
    expected = to_address(
        keccak256(
            b"\xff" + CALLER_C + salt.to_bytes(32, "big") + keccak256(init)
        )
    )
    assert new_address == expected
    assert state.get_nonce(new_address) == 1


def test_create_failure_returns_zero(backend, chain):
    # Init code that reverts.
    init = assemble(["PUSH0", "PUSH0", "REVERT"])
    creator = assemble(
        _memory_store_ops(init)
        + push(len(init)) + push(0) + push(0) + ["CREATE"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    backend.ensure(CALLER_C).code = creator
    result, _ = _run(backend, chain)
    assert int.from_bytes(result.return_data, "big") == 0


def test_create_inside_static_fails(backend, chain):
    init = assemble(["STOP"])
    inner = assemble(
        _memory_store_ops(init)
        + push(len(init)) + push(0) + push(0) + ["CREATE", "POP", "STOP"]
    )
    backend.ensure(CALLEE_C).code = inner
    backend.ensure(CALLER_C).code = assemble(
        push(0) + push(0) + push(0) + push(0)
        + ["PUSH20", int.from_bytes(CALLEE_C, "big"), "GAS", "STATICCALL"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    result, _ = _run(backend, chain)
    assert int.from_bytes(result.return_data, "big") == 0


def test_eip3541_rejects_ef_prefix(backend, chain):
    # Init code returning a runtime that starts with 0xEF must fail.
    bad_runtime = b"\xef\x00"
    init = deployer(bad_runtime)
    creator = assemble(
        _memory_store_ops(init)
        + push(len(init)) + push(0) + push(0) + ["CREATE"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    backend.ensure(CALLER_C).code = creator
    result, _ = _run(backend, chain)
    assert int.from_bytes(result.return_data, "big") == 0


# -- SELFDESTRUCT --------------------------------------------------------------


def test_selfdestruct_moves_balance(backend, chain):
    backend.ensure(CALLEE_C).code = assemble(
        ["PUSH20", int.from_bytes(ALICE, "big"), "SELFDESTRUCT"]
    )
    backend.ensure(CALLEE_C).balance = 5_000
    state = JournaledState(backend)
    alice_before = state.get_balance(ALICE)
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=CALLEE_C)
    )
    assert result.success, result.error
    assert not state.account_exists(CALLEE_C)
    # Alice got the 5000 minus her own gas spend (fees charged).
    assert state.get_balance(ALICE) > alice_before - 100_000


def test_selfdestruct_blocked_in_static(backend, chain):
    backend.ensure(CALLEE_C).code = assemble(
        ["PUSH20", int.from_bytes(ALICE, "big"), "SELFDESTRUCT"]
    )
    backend.ensure(CALLER_C).code = assemble(
        push(0) + push(0) + push(0) + push(0)
        + ["PUSH20", int.from_bytes(CALLEE_C, "big"), "GAS", "STATICCALL"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    result, state = _run(backend, chain)
    assert int.from_bytes(result.return_data, "big") == 0
    assert state.account_exists(CALLEE_C)
