"""The dispatch loop against the loop it replaced (``tests.oracles.reference_run``).

Every program and every evaluation-set transaction runs twice — once
through ``Interpreter._run``, once with ``reference_run`` in its place —
under the tracers the device runs with, and everything either loop can
influence must come out equal: each ``StructLog`` row (pc, op, gas,
depth, stack *before* the step), the frame result (gas left, output,
error string), the call tree, and the simulated clock compared by
``float.hex`` — the clock advances once per step, so one reordered or
batched advance shows in the last bit.

Both sides share the opcode handlers: this pins the loop (hook → static
gas → handler → pc), not what a handler computes.  It is not the
independent check of the EVM that ROADMAP item 7 describes.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.kdf import Drbg
from repro.evm.executor import execute_transaction
from repro.evm.frame import Message
from repro.evm.interpreter import ChainContext, Interpreter
from repro.evm.opcodes import ADD, JUMP, JUMPDEST, JUMPI, POP, PUSH0, PUSH1, PUSH32
from repro.evm.tracer import CallTracer, MultiTracer, StructTracer
from repro.hardware.hevm import HardwareTracer, step_costs_us
from repro.hardware.memory_layers import Layer2CallStack
from repro.hardware.timing import CostModel, SimClock, TimeBreakdown
from repro.state.account import to_address
from repro.state.backend import DictBackend
from repro.state.blocks import BlockHeader
from repro.state.journal import JournaledState
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set
from tests.oracles import reference_run

CALLER = to_address(0xA1)
TARGET = to_address(0xD1F)
_CHAIN = ChainContext(BlockHeader(
    number=1, parent_hash=b"\x00" * 32, state_root=b"\x00" * 32,
    timestamp=0, coinbase=to_address(0xC0),
))

PUSH2 = PUSH1 + 1
UNASSIGNED = 0x0C

# Opcodes that touch nothing but the frame: arithmetic, comparison and
# bitwise, POP, MLOAD/MSTORE/MSTORE8, JUMPDEST, DUP1-16 and SWAP1-16.
_PURE = [
    *range(0x01, 0x0C), *range(0x10, 0x1E), POP, 0x51, 0x52, 0x53, JUMPDEST,
    *range(0x80, 0xA0),
]


class _Rig:
    """The tracers of one device run, and what they recorded."""

    def __init__(self) -> None:
        cost = CostModel()
        self.clock = SimClock()
        self.breakdown = TimeBreakdown()
        self.struct = StructTracer()
        self.calls = CallTracer()
        hardware = HardwareTracer(
            self.clock, cost, Layer2CallStack(rng=Drbg(b"step-oracle")),
            self.breakdown, step_costs_us(cost),
        )
        self.tracer = MultiTracer(hardware, self.struct, self.calls)

    def observed(self) -> tuple:
        return (
            self.struct.logs,
            self.calls.root,
            self.calls.footprints,
            self.clock.now_us.hex(),
            self.breakdown.execution_us.hex(),
            self.breakdown.swap_us.hex(),
        )


def _run_program(code: bytes, gas: int) -> tuple:
    backend = DictBackend()
    backend.ensure(TARGET).code = code
    rig = _Rig()
    vm = Interpreter(JournaledState(backend), _CHAIN, rig.tracer, origin=CALLER)
    result = vm.execute_message(Message(
        caller=CALLER, to=TARGET, code_address=TARGET, value=0, data=b"", gas=gas,
    ))
    return result, rig.observed()


def _both_loops(code: bytes, gas: int):
    """``(result, observations)`` of the program, equal under both loops."""
    production = _run_program(code, gas)
    with mock.patch.object(Interpreter, "_run", reference_run):
        reference = _run_program(code, gas)
    assert production == reference
    return production


# -- hypothesis programs -------------------------------------------------

_pure_op = st.sampled_from(_PURE).map(lambda opcode: bytes([opcode]))
_push = st.integers(0, 32).flatmap(
    lambda width: st.binary(min_size=width, max_size=width).map(
        lambda immediate: bytes([PUSH0 + width]) + immediate
    )
)
# A small word on the stack: operands that keep MLOAD/MSTORE offsets and
# shift amounts in the range where the handlers do work, not just refuse.
_small_push = st.integers(0, 0x120).map(lambda v: bytes([PUSH2]) + v.to_bytes(2, "big"))
# (kind, label index): the target is patched in once the layout is known.
_jump = st.tuples(st.sampled_from(["JUMP", "JUMPI"]), st.integers(0, 7))
_jumpdest = st.just(bytes([JUMPDEST]))
_item = st.one_of(_pure_op, _pure_op, _push, _small_push, _small_push, _jumpdest, _jump)


def _lay_out(items: list) -> bytes:
    """Concatenate ``items``; a jump becomes ``PUSH2 <target> JUMP[I]`` aimed
    at the chosen JUMPDEST of the program (or at byte 0 when it has none,
    which is an invalid jump unless a JUMPDEST happens to sit there)."""
    chunks = [item if isinstance(item, bytes) else b"\x00" * 4 for item in items]
    offsets = [0]
    for chunk in chunks:
        offsets.append(offsets[-1] + len(chunk))
    jumpdests = [
        offset for item, offset in zip(items, offsets) if item == bytes([JUMPDEST])
    ]
    for index, item in enumerate(items):
        if not isinstance(item, bytes):
            kind, label = item
            target = jumpdests[label % len(jumpdests)] if jumpdests else 0
            chunks[index] = (
                bytes([PUSH2]) + target.to_bytes(2, "big")
                + bytes([JUMP if kind == "JUMP" else JUMPI])
            )
    return b"".join(chunks)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_small_push, max_size=20),  # operands, so most programs get somewhere
    st.lists(_item, max_size=40),
    st.integers(0, 2_000),
    st.sampled_from([b"", b"", bytes([UNASSIGNED]), bytes([PUSH32]) + b"\xAA" * 5]),
)
def test_random_pure_programs_agree_under_both_loops(operands, items, gas, tail):
    _both_loops(_lay_out(operands + items) + tail, gas)


# -- the named edges -------------------------------------------------------

_ADD_PROGRAM = bytes([PUSH1, 2, PUSH1, 3, ADD])  # 3 + 3 + 3 gas


def _error(code: bytes, gas: int = 100_000) -> str | None:
    return _both_loops(code, gas)[0].error


def test_a_push_truncated_by_the_end_of_code_pushes_the_padded_word():
    result, (logs, *_rest) = _both_loops(bytes([PUSH32]) + b"\xAB\xCD", 10)
    assert (result.success, result.gas_left, len(logs)) == (True, 7, 1)


def test_a_jump_into_push_data_is_an_invalid_jump():
    # Byte 4 is a JUMPDEST byte, but it is PUSH1's immediate.
    code = bytes([PUSH1, 4, JUMP, PUSH1, JUMPDEST, POP])
    assert _error(code).startswith("InvalidJump")


@pytest.mark.parametrize("gas, error, gas_left, rows", [
    (8, "OutOfGas: needs 3, has 2", 0, 3),   # one short of ADD's static charge
    (9, None, 0, 3),                          # exactly the static charge
    (10, None, 1, 3),                         # one above it
    (5, "OutOfGas: needs 3, has 2", 0, 2),    # the tracer saw the step it died on
])
def test_out_of_gas_at_the_static_charge(gas, error, gas_left, rows):
    result, (logs, *_rest) = _both_loops(_ADD_PROGRAM, gas)
    assert (result.error, result.gas_left, len(logs)) == (error, gas_left, rows)
    assert logs[-1].gas == gas - 3 * (rows - 1)  # as it stood before the charge


def test_an_unassigned_opcode_mid_program_is_not_shown_to_the_tracer():
    result, (logs, *_rest) = _both_loops(bytes([PUSH1, 1, UNASSIGNED, PUSH1, 2]), 100)
    assert result.error == "InvalidOpcode: invalid opcode 0x0c"
    assert (result.gas_left, [row.op for row in logs]) == (0, ["PUSH1"])


def test_stack_underflow_and_the_1025th_push():
    assert _error(bytes([ADD])).startswith("StackUnderflow")
    assert _error(bytes([PUSH0]) * 1024) is None
    result, (logs, *_rest) = _both_loops(bytes([PUSH0]) * 1025, 100_000)
    assert result.error == "StackOverflow: stack limit of 1024 exceeded"
    assert len(logs) == 1025 and len(logs[-1].stack) == 1024


def test_running_past_the_end_of_code_is_an_implicit_stop():
    result, (logs, *_rest) = _both_loops(bytes([PUSH1, 1]), 10)
    assert (result.success, result.output, result.gas_left) == (True, b"", 7)


def test_a_backward_jump_loops_until_the_gas_is_gone():
    code = bytes([JUMPDEST, PUSH1, 0, JUMP])  # 1 + 3 + 8 gas a turn
    result, (logs, *_rest) = _both_loops(code, 1_000)
    assert result.error.startswith("OutOfGas") and len(logs) > 240


# -- every transaction of the canonical evaluation set ---------------------


def _run_evaluation_set(world) -> list:
    node = world.node
    state = JournaledState(node.state_at(node.height).copy())
    chain = node.chain_context(node.latest.block.header)
    outcomes = []
    for tx in world.transactions:
        rig = _Rig()
        result = execute_transaction(
            state, chain, tx, tracer=rig.tracer, charge_fees=False
        )
        outcomes.append((result, rig.observed()))
    return outcomes


def test_the_canonical_evaluation_set_agrees_under_both_loops():
    # The e2e ledger's world: the generator's default seed, 6 blocks of
    # 10 transactions plus the 2 rollup batches.
    world = build_evaluation_set(
        EvaluationSetConfig(blocks=6, txs_per_block=10, include_rollups=True)
    )
    production = _run_evaluation_set(world)
    with mock.patch.object(Interpreter, "_run", reference_run):
        reference = _run_evaluation_set(world)
    assert len(production) == 62
    assert sum(len(logs) for _result, (logs, *_rest) in production) > 40_000
    for index, (ours, theirs) in enumerate(zip(production, reference)):
        assert ours == theirs, f"transaction {index}"
