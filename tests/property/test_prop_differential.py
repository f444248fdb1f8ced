"""Differential testing: random programs vs a Python reference evaluator.

Hypothesis generates random straight-line stack programs (pushes,
arithmetic, comparisons, bitwise ops, DUP/SWAP); a tiny independent
Python evaluator computes the expected stack; the EVM must agree on the
final top-of-stack word.  This catches dispatch, operand-order, and
wrap-around bugs that example-based tests miss.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.evm.executor import execute_transaction
from repro.evm.interpreter import ChainContext
from repro.state.account import to_address
from repro.state.backend import DictBackend
from repro.state.blocks import BlockHeader, Transaction
from repro.state.journal import JournaledState
from repro.workloads.asm import assemble

WORD = 2**256
MASK = WORD - 1
ALICE = to_address(0xA1)
TARGET = to_address(0xD1F)

_HEADER = BlockHeader(
    number=1, parent_hash=b"\x00" * 32, state_root=b"\x00" * 32,
    timestamp=0, coinbase=to_address(0xC0),
)


def _signed(value: int) -> int:
    return value - WORD if value >> 255 else value


# (mnemonic, arity, reference implementation) — top of stack is args[0].
_BINOPS = {
    "ADD": lambda a, b: (a + b) & MASK,
    "MUL": lambda a, b: (a * b) & MASK,
    "SUB": lambda a, b: (a - b) & MASK,
    "DIV": lambda a, b: a // b if b else 0,
    "MOD": lambda a, b: a % b if b else 0,
    "SDIV": lambda a, b: (
        0 if _signed(b) == 0 else (
            (abs(_signed(a)) // abs(_signed(b)))
            * (-1 if (_signed(a) < 0) != (_signed(b) < 0) else 1)
        ) & MASK
    ),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "LT": lambda a, b: int(a < b),
    "GT": lambda a, b: int(a > b),
    "EQ": lambda a, b: int(a == b),
    "SLT": lambda a, b: int(_signed(a) < _signed(b)),
    "SGT": lambda a, b: int(_signed(a) > _signed(b)),
    "SHL": lambda shift, value: 0 if shift >= 256 else (value << shift) & MASK,
    "SHR": lambda shift, value: 0 if shift >= 256 else value >> shift,
}

_UNOPS = {
    "ISZERO": lambda a: int(a == 0),
    "NOT": lambda a: a ^ MASK,
}


class _Reference:
    """Independent straight-line stack evaluator."""

    def __init__(self) -> None:
        self.stack: list[int] = []

    def push(self, value: int) -> None:
        self.stack.append(value & MASK)

    def apply(self, op: str) -> None:
        if op in _BINOPS:
            a = self.stack.pop()
            b = self.stack.pop()
            self.stack.append(_BINOPS[op](a, b) & MASK)
        elif op in _UNOPS:
            self.stack.append(_UNOPS[op](self.stack.pop()) & MASK)
        elif op.startswith("DUP"):
            n = int(op[3:])
            self.stack.append(self.stack[-n])
        elif op.startswith("SWAP"):
            n = int(op[4:])
            self.stack[-1], self.stack[-1 - n] = (
                self.stack[-1 - n], self.stack[-1],
            )
        else:  # pragma: no cover - generator never emits others
            raise AssertionError(op)


@st.composite
def programs(draw):
    """A random program that always leaves ≥1 item on the stack."""
    ops: list = []
    reference = _Reference()
    # Seed the stack.
    for _ in range(draw(st.integers(2, 4))):
        value = draw(st.integers(0, MASK))
        ops += ["PUSH32", value]
        reference.push(value)
    step_count = draw(st.integers(1, 25))
    for _ in range(step_count):
        depth = len(reference.stack)
        choices = ["push"]
        if depth >= 2:
            choices += ["binop", "swap"]
        if depth >= 1:
            choices += ["unop", "dup"]
        kind = draw(st.sampled_from(choices))
        if kind == "push":
            value = draw(st.integers(0, MASK))
            ops += ["PUSH32", value]
            reference.push(value)
        elif kind == "binop":
            op = draw(st.sampled_from(sorted(_BINOPS)))
            ops.append(op)
            reference.apply(op)
        elif kind == "unop":
            op = draw(st.sampled_from(sorted(_UNOPS)))
            ops.append(op)
            reference.apply(op)
        elif kind == "dup":
            n = draw(st.integers(1, min(depth, 16)))
            ops.append(f"DUP{n}")
            reference.apply(f"DUP{n}")
        else:
            n = draw(st.integers(1, min(depth - 1, 16)))
            ops.append(f"SWAP{n}")
            reference.apply(f"SWAP{n}")
    return ops, reference.stack[-1]


@given(programs())
@settings(max_examples=120, deadline=None)
def test_random_programs_match_reference(case):
    ops, expected_top = case
    program = ops + ["PUSH0", "MSTORE", "PUSH1", 32, "PUSH0", "RETURN"]
    backend = DictBackend()
    backend.ensure(ALICE).balance = 10**18
    backend.ensure(TARGET).code = assemble(program)
    state = JournaledState(backend)
    result = execute_transaction(
        state, ChainContext(_HEADER), Transaction(sender=ALICE, to=TARGET)
    )
    assert result.success, result.error
    assert int.from_bytes(result.return_data, "big") == expected_top
