"""Remaining EVM edge cases: block queries, copies, modular arithmetic."""


from repro.evm.executor import execute_transaction
from repro.evm.interpreter import ChainContext
from repro.state.account import to_address
from repro.state.backend import DictBackend
from repro.state.blocks import Transaction
from repro.state.journal import JournaledState
from repro.workloads.asm import assemble, push

from tests.conftest import ALICE

WORD = 2**256
TARGET = to_address(0xED6E)


def _eval(backend, chain, ops) -> int:
    backend.ensure(TARGET).code = assemble(
        ops + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=TARGET)
    )
    assert result.success, result.error
    return int.from_bytes(result.return_data, "big")


def test_blockhash_future_block_is_zero(backend, chain):
    future = chain.header.number + 5
    assert _eval(backend, chain, push(future) + ["BLOCKHASH"]) == 0


def test_blockhash_too_old_is_zero(backend, header):
    from repro.state.blocks import BlockHeader

    high_header = BlockHeader(
        number=1000, parent_hash=b"\x00" * 32, state_root=b"\x00" * 32,
        timestamp=0, coinbase=to_address(0xC0),
    )
    high_chain = ChainContext(high_header)
    backend = DictBackend()
    backend.ensure(ALICE).balance = 10**18
    # More than 256 blocks back: zero.
    assert _eval(backend, high_chain, push(1) + ["BLOCKHASH"]) == 0
    # Within the window: non-zero.
    assert _eval(backend, high_chain, push(900) + ["BLOCKHASH"]) != 0


def test_blockhash_prefers_known_hashes(backend, header):
    known = {99: b"\xab" * 32}
    chain = ChainContext(header, known)
    assert _eval(backend, chain, push(99) + ["BLOCKHASH"]) == int.from_bytes(
        b"\xab" * 32, "big"
    )


def test_prevrandao_exposed(backend, header):
    from dataclasses import replace

    chain = ChainContext(replace(header, prev_randao=0xDEAD))
    assert _eval(backend, chain, ["PREVRANDAO"]) == 0xDEAD


def test_mulmod_full_width_operands(backend, chain):
    a = WORD - 1
    b = WORD - 2
    n = 2**255 + 11
    ops = ["PUSH32", n, "PUSH32", b, "PUSH32", a, "MULMOD"]
    assert _eval(backend, chain, ops) == (a * b) % n


def test_addmod_does_not_wrap_intermediate(backend, chain):
    a = WORD - 1
    n = 10
    # (a + a) % 10 computed over the true sum, not mod 2^256.
    ops = ["PUSH32", n, "PUSH32", a, "PUSH32", a, "ADDMOD"]
    assert _eval(backend, chain, ops) == (a + a) % n


def test_extcodecopy_of_empty_account_zero_fills(backend, chain):
    ghost = to_address(0x6057)
    program = (
        push(32) + push(0) + push(0)
        + ["PUSH20", int.from_bytes(ghost, "big"), "EXTCODECOPY"]
        + ["PUSH0", "MLOAD"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    backend.ensure(TARGET).code = assemble(program)
    state = JournaledState(backend)
    result = execute_transaction(state, chain, Transaction(sender=ALICE, to=TARGET))
    assert result.success
    assert result.return_data == b"\x00" * 32


def test_calldataload_far_offset_is_zero(backend, chain):
    backend.ensure(TARGET).code = assemble(
        ["PUSH32", 2**200, "CALLDATALOAD"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    state = JournaledState(backend)
    result = execute_transaction(
        state, chain, Transaction(sender=ALICE, to=TARGET, data=b"\x01" * 64)
    )
    assert int.from_bytes(result.return_data, "big") == 0


def test_dup16_swap16_boundaries(backend, chain):
    ops = []
    for value in range(1, 18):
        ops += push(value)
    # Stack (top..): 17..1.  DUP16 copies the value 16 deep (= 2).
    assert _eval(backend, chain, ops + ["DUP16"]) == 2
    # SWAP16 exchanges top (17) with the 17th item (= 1).
    ops_swap = []
    for value in range(1, 18):
        ops_swap += push(value)
    assert _eval(backend, chain, ops_swap + ["SWAP16"]) == 1


def test_log4_topic_order(backend, chain):
    program = assemble(
        push(4) + push(3) + push(2) + push(1)  # topics pushed reversed
        + push(0) + push(0) + ["LOG4", "STOP"]
    )
    backend.ensure(TARGET).code = program
    state = JournaledState(backend)
    result = execute_transaction(state, chain, Transaction(sender=ALICE, to=TARGET))
    assert result.success, result.error
    assert result.logs[0].topics == [1, 2, 3, 4]
    assert result.logs[0].data == b""


def test_callcode_transfers_to_self(backend, chain):
    """CALLCODE with value moves balance from the caller to itself."""
    library = to_address(0x11B)
    backend.ensure(library).code = assemble(["STOP"])
    backend.ensure(TARGET).balance = 1000
    program = (
        push(0) + push(0) + push(0) + push(0)
        + push(77)  # value
        + ["PUSH20", int.from_bytes(library, "big"), "GAS", "CALLCODE"]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    backend.ensure(TARGET).code = assemble(program)
    state = JournaledState(backend)
    result = execute_transaction(state, chain, Transaction(sender=ALICE, to=TARGET))
    assert int.from_bytes(result.return_data, "big") == 1  # call succeeded
    assert state.get_balance(TARGET) == 1000  # self-transfer nets to zero
    assert state.get_balance(library) == 0  # CALLCODE never pays the callee


def test_gas_opcode_decreases_monotonically(backend, chain):
    from repro.evm.tracer import StructTracer

    backend.ensure(TARGET).code = assemble(
        ["GAS", "POP"] * 5 + ["STOP"]
    )
    tracer = StructTracer()
    state = JournaledState(backend)
    execute_transaction(
        state, chain, Transaction(sender=ALICE, to=TARGET), tracer=tracer
    )
    observed = [
        log.stack[-1] for log in tracer.logs
        if log.op == "POP" and log.stack
    ]
    assert observed == sorted(observed, reverse=True)
    assert len(set(observed)) == len(observed)
