"""EVM instruction semantics, exercised through assembled programs."""

import pytest

from repro.evm.executor import execute_transaction
from repro.state.account import to_address
from repro.state.blocks import Transaction
from repro.state.journal import JournaledState
from repro.workloads.asm import assemble, push

from tests.conftest import ALICE

WORD = 2**256
TARGET = to_address(0xEC)


def run_program(backend, chain, program, data=b"", value=0, sender=ALICE):
    """Deploy `program` at TARGET and call it; returns the result."""
    backend.ensure(TARGET).code = assemble(program)
    state = JournaledState(backend)
    result = execute_transaction(
        state,
        chain,
        Transaction(sender=sender, to=TARGET, data=data, value=value),
    )
    return result, state


def returns_top_of_stack(ops):
    """Wrap ops so the top of stack is returned as a 32-byte word."""
    return ops + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]


def eval_expr(backend, chain, ops) -> int:
    result, _ = run_program(backend, chain, returns_top_of_stack(ops))
    assert result.success, result.error
    return int.from_bytes(result.return_data, "big")


# -- arithmetic -------------------------------------------------------------


@pytest.mark.parametrize(
    "ops,expected",
    [
        (push(3) + push(4) + ["ADD"], 7),
        (push(3) + push(4) + ["MUL"], 12),
        (push(3) + push(10) + ["SUB"], 7),  # stack order: 10 - 3
        (push(3) + push(10) + ["DIV"], 3),
        (push(0) + push(10) + ["DIV"], 0),  # div by zero
        (push(3) + push(10) + ["MOD"], 1),
        (push(0) + push(10) + ["MOD"], 0),
        (push(5) + push(4) + push(3) + ["ADDMOD"], 2),  # (3+4)%5
        (push(5) + push(4) + push(3) + ["MULMOD"], 2),  # (3*4)%5
        (push(0) + push(4) + push(3) + ["ADDMOD"], 0),
        (push(3) + push(2) + ["EXP"], 8),  # 2**3
        (push(0) + push(2) + ["EXP"], 1),
    ],
)
def test_arithmetic(backend, chain, ops, expected):
    assert eval_expr(backend, chain, ops) == expected


def test_add_wraps(backend, chain):
    ops = push(1) + ["PUSH32", WORD - 1, "ADD"]
    assert eval_expr(backend, chain, ops) == 0


def test_sdiv_negative(backend, chain):
    # -10 / 3 == -3 (truncated toward zero)
    minus_ten = WORD - 10
    ops = push(3) + ["PUSH32", minus_ten, "SDIV"]
    assert eval_expr(backend, chain, ops) == WORD - 3


def test_smod_sign_follows_dividend(backend, chain):
    minus_ten = WORD - 10
    ops = push(3) + ["PUSH32", minus_ten, "SMOD"]
    assert eval_expr(backend, chain, ops) == WORD - 1  # -1


def test_signextend(backend, chain):
    # Sign-extend 0xFF from byte 0: all ones.
    # stack [0xff, 0]: SIGNEXTEND pops byte index (0) then value (0xff).
    ops = push(0xFF) + push(0) + ["SIGNEXTEND"]
    assert eval_expr(backend, chain, ops) == WORD - 1


# -- comparison / bitwise ---------------------------------------------------------


@pytest.mark.parametrize(
    "ops,expected",
    [
        (push(5) + push(3) + ["LT"], 1),   # 3 < 5
        (push(3) + push(5) + ["LT"], 0),
        (push(3) + push(5) + ["GT"], 1),   # 5 > 3
        (push(5) + push(5) + ["EQ"], 1),
        (push(0) + ["ISZERO"], 1),
        (push(7) + ["ISZERO"], 0),
        (push(0b1100) + push(0b1010) + ["AND"], 0b1000),
        (push(0b1100) + push(0b1010) + ["OR"], 0b1110),
        (push(0b1100) + push(0b1010) + ["XOR"], 0b0110),
        (push(0) + ["NOT"], WORD - 1),
        (push(2) + push(1) + ["SHL"], 4),  # 2 << 1
        (push(4) + push(1) + ["SHR"], 2),  # 4 >> 1
        (push(1) + push(256) + ["SHL"], 0),  # overshift
    ],
)
def test_comparison_bitwise(backend, chain, ops, expected):
    assert eval_expr(backend, chain, ops) == expected


def test_slt_sgt(backend, chain):
    minus_one = WORD - 1
    assert eval_expr(backend, chain, push(1) + ["PUSH32", minus_one, "SLT"]) == 1
    assert eval_expr(backend, chain, ["PUSH32", minus_one] + push(1) + ["SGT"]) == 1


def test_byte_instruction(backend, chain):
    value = 0xAABBCC
    # Stack [value, 31]: BYTE pops the index first; byte 31 is the LSB.
    assert eval_expr(backend, chain, ["PUSH32", value] + push(31) + ["BYTE"]) == 0xCC
    assert eval_expr(backend, chain, ["PUSH32", value] + push(40) + ["BYTE"]) == 0


def test_sar_arithmetic_shift(backend, chain):
    minus_four = WORD - 4
    # Stack [value, shift]: SAR pops the shift first; -4 >> 1 == -2.
    assert eval_expr(backend, chain, ["PUSH32", minus_four] + push(1) + ["SAR"]) == WORD - 2
    # Overshift of a negative value saturates to -1.
    assert eval_expr(backend, chain, ["PUSH32", minus_four] + push(300) + ["SAR"]) == WORD - 1


def test_sha3_matches_reference(backend, chain):
    from repro.crypto.keccak import keccak256

    ops = (
        push(0xDEADBEEF) + ["PUSH0", "MSTORE"]
        + push(32) + ["PUSH0", "SHA3"]
    )
    expected = int.from_bytes(
        keccak256((0xDEADBEEF).to_bytes(32, "big")), "big"
    )
    assert eval_expr(backend, chain, ops) == expected


# -- environment -------------------------------------------------------------------


def test_environment_opcodes(backend, chain, header):
    assert eval_expr(backend, chain, ["ADDRESS"]) == int.from_bytes(TARGET, "big")
    assert eval_expr(backend, chain, ["CALLER"]) == int.from_bytes(ALICE, "big")
    assert eval_expr(backend, chain, ["ORIGIN"]) == int.from_bytes(ALICE, "big")
    assert eval_expr(backend, chain, ["NUMBER"]) == header.number
    assert eval_expr(backend, chain, ["TIMESTAMP"]) == header.timestamp
    assert eval_expr(backend, chain, ["CHAINID"]) == header.chain_id
    assert eval_expr(backend, chain, ["COINBASE"]) == int.from_bytes(
        header.coinbase, "big"
    )
    assert eval_expr(backend, chain, ["GASPRICE"]) == 1
    assert eval_expr(backend, chain, ["BASEFEE"]) == header.base_fee


def test_callvalue_and_selfbalance(backend, chain):
    program = returns_top_of_stack(["CALLVALUE"])
    result, _ = run_program(backend, chain, program, value=777)
    assert int.from_bytes(result.return_data, "big") == 777
    # After the transfer, SELFBALANCE sees the incoming value.
    program = returns_top_of_stack(["SELFBALANCE"])
    result, _ = run_program(backend, chain, program, value=123)
    assert int.from_bytes(result.return_data, "big") == 123


def test_calldata_opcodes(backend, chain):
    data = bytes(range(64))
    program = returns_top_of_stack(push(2) + ["CALLDATALOAD"])
    result, _ = run_program(backend, chain, program, data=data)
    assert result.return_data == data[2:34]
    program = returns_top_of_stack(["CALLDATASIZE"])
    result, _ = run_program(backend, chain, program, data=data)
    assert int.from_bytes(result.return_data, "big") == 64


def test_calldatacopy_pads_with_zeros(backend, chain):
    program = (
        push(40) + push(60) + push(0) + ["CALLDATACOPY"]
        + push(32) + push(0) + ["RETURN"]
    )
    # copy 40 bytes from offset 60 of 64-byte calldata: 4 real + 36 zeros
    result, _ = run_program(backend, chain, program, data=bytes(range(64)))
    assert result.return_data[:4] == bytes([60, 61, 62, 63])
    assert result.return_data[4:] == b"\x00" * 28


def test_codesize_codecopy(backend, chain):
    program = returns_top_of_stack(["CODESIZE"])
    result, _ = run_program(backend, chain, program)
    code_length = len(assemble(program))
    assert int.from_bytes(result.return_data, "big") == code_length


def test_balance_and_extcodesize(backend, chain):
    other = to_address(0x777)
    backend.ensure(other).balance = 424242
    backend.ensure(other).code = b"\x00" * 7
    ops = ["PUSH20", int.from_bytes(other, "big"), "BALANCE"]
    assert eval_expr(backend, chain, ops) == 424242
    ops = ["PUSH20", int.from_bytes(other, "big"), "EXTCODESIZE"]
    assert eval_expr(backend, chain, ops) == 7


def test_extcodehash_variants(backend, chain):
    from repro.crypto.keccak import keccak256

    contract = to_address(0x700)
    backend.ensure(contract).code = b"\x60\x01"
    ops = ["PUSH20", int.from_bytes(contract, "big"), "EXTCODEHASH"]
    assert eval_expr(backend, chain, ops) == int.from_bytes(
        keccak256(b"\x60\x01"), "big"
    )
    # Non-existent account hashes to 0.
    ops = ["PUSH20", int.from_bytes(to_address(0xDEAD0), "big"), "EXTCODEHASH"]
    assert eval_expr(backend, chain, ops) == 0


# -- memory & storage ----------------------------------------------------------------


def test_mstore_mload_roundtrip(backend, chain):
    ops = (
        push(0xCAFE) + push(64) + ["MSTORE"]
        + push(64) + ["MLOAD"]
    )
    assert eval_expr(backend, chain, ops) == 0xCAFE


def test_mstore8(backend, chain):
    ops = (
        push(0xABCD) + push(0) + ["MSTORE8"]  # stores low byte only
        + ["PUSH0", "MLOAD"]
    )
    assert eval_expr(backend, chain, ops) == 0xCD << 248


def test_msize_tracks_expansion(backend, chain):
    ops = push(0) + push(100) + ["MSTORE", "MSIZE"]
    assert eval_expr(backend, chain, ops) == 160  # ceil(132/32)*32


def test_sstore_sload(backend, chain):
    program = returns_top_of_stack(
        push(0x42) + push(5) + ["SSTORE"] + push(5) + ["SLOAD"]
    )
    result, state = run_program(backend, chain, program)
    assert int.from_bytes(result.return_data, "big") == 0x42
    assert state.get_storage(TARGET, 5) == 0x42


def test_transient_isolation_between_txs(backend, chain):
    # Two separate transactions to the same contract share the backend
    # only through committed state, not memory.
    program = returns_top_of_stack(["PUSH0", "MLOAD"])
    result, _ = run_program(backend, chain, program)
    assert int.from_bytes(result.return_data, "big") == 0


# -- control flow ------------------------------------------------------------------------


def test_jump_and_jumpi(backend, chain):
    from repro.workloads.asm import label, push_label

    program = (
        push(1)
        + [push_label("skip"), "JUMPI", "INVALID"]
        + [label("skip"), "JUMPDEST"]
        + returns_top_of_stack(push(99))
    )
    result, _ = run_program(backend, chain, program)
    assert result.success
    assert int.from_bytes(result.return_data, "big") == 99


def test_invalid_jump_destination_fails(backend, chain):
    program = push(1) + ["JUMP"]
    result, _ = run_program(backend, chain, program)
    assert not result.success
    assert "InvalidJump" in result.error


def test_jumpi_not_taken_falls_through(backend, chain):
    from repro.workloads.asm import label, push_label

    program = (
        push(0)
        + [push_label("skip"), "JUMPI"]
        + returns_top_of_stack(push(7))
        + [label("skip"), "JUMPDEST", "INVALID"]
    )
    result, _ = run_program(backend, chain, program)
    assert int.from_bytes(result.return_data, "big") == 7


def test_pc_instruction(backend, chain):
    program = returns_top_of_stack(["PC"])
    result, _ = run_program(backend, chain, program)
    assert int.from_bytes(result.return_data, "big") == 0


def test_implicit_stop_past_code_end(backend, chain):
    result, _ = run_program(backend, chain, push(1))
    assert result.success
    assert result.return_data == b""


def test_invalid_opcode_consumes_all_gas(backend, chain):
    result, _ = run_program(backend, chain, ["INVALID"])
    assert not result.success
    tx_limit = 30_000_000
    assert result.gas_used == tx_limit


def test_revert_returns_gas_and_data(backend, chain):
    program = (
        push(0xBAD) + push(0) + ["MSTORE"]
        + push(32) + push(0) + ["REVERT"]
    )
    result, _ = run_program(backend, chain, program)
    assert not result.success
    assert int.from_bytes(result.return_data, "big") == 0xBAD
    assert result.gas_used < 50_000  # unconsumed gas was refunded


def test_stack_underflow_fails_frame(backend, chain):
    result, _ = run_program(backend, chain, ["POP"])
    assert not result.success
    assert "StackUnderflow" in result.error


def test_out_of_gas(backend, chain):
    backend.ensure(TARGET).code = assemble(
        push(1_000_000) + ["PUSH0", "MSTORE"]  # fine
    )
    state = JournaledState(backend)
    result = execute_transaction(
        state,
        chain,
        Transaction(sender=ALICE, to=TARGET, gas_limit=21_010),
    )
    assert not result.success
    assert "OutOfGas" in result.error
    assert result.gas_used == 21_010
