"""Execution frames and the logical call stack.

An *execution frame* (paper §II-A) is the context between a CALL and its
RETURN: runtime stack, the four memory-likes, frame state (address,
caller, value, remaining gas, …), and the frame's view of the world
state (handled by journal snapshots).  The frame's byte footprint is
what HarDTAPE's layer-2 call stack manages in 1 KB pages, so
:meth:`ExecutionFrame.footprint` reports sizes per memory-like exactly
as Table I measures them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.evm.exceptions import OutOfGas
from repro.evm.memory import Memory
from repro.evm.opcodes import JUMPDEST, push_size
from repro.evm.stack import Stack
from repro.state.account import Address

CALL_DEPTH_LIMIT = 1024


@dataclass(frozen=True)
class Message:
    """The parameters that create an execution frame."""

    caller: Address
    to: Address  # the frame's storage/context address
    code_address: Address  # whose code runs (differs under DELEGATECALL)
    value: int
    data: bytes
    gas: int
    is_static: bool = False
    is_create: bool = False
    depth: int = 0


@dataclass
class FrameFootprint:
    """Byte sizes of one frame's memory-likes (Table I columns)."""

    code: int
    input: int
    memory: int
    return_data: int
    storage_keys: int

    @property
    def total(self) -> int:
        """Total swappable frame bytes (stack + memory-likes + state)."""
        # 32 KB runtime stack partition + 32 frame-state slots (1 KB).
        return 32 * 1024 + 1024 + self.code + self.input + self.memory + self.return_data


class ExecutionFrame:
    """One live frame on the call stack."""

    def __init__(self, message: Message, code: bytes) -> None:
        self.message = message
        self.code = code
        self.pc = 0
        self.stack = Stack()
        self.memory = Memory()
        self.return_data = b""  # ReturnData of the *last completed* subcall
        self.gas = message.gas
        self.valid_jumpdests = analyze_jumpdests(code)
        self.output = b""  # bytes produced by RETURN/REVERT
        self.reverted = False
        self.halted = False
        self.storage_keys_touched: set[int] = set()
        self.logs: list[tuple[Address, list[int], bytes]] = []

    @property
    def address(self) -> Address:
        return self.message.to

    @property
    def depth(self) -> int:
        return self.message.depth

    def use_gas(self, amount: int) -> None:
        """Charge gas; raises OutOfGas when exhausted."""
        if amount > self.gas:
            available = self.gas
            self.gas = 0
            raise OutOfGas(f"needs {amount}, has {available}")
        self.gas -= amount

    def refund_gas(self, amount: int) -> None:
        self.gas += amount

    def footprint(self) -> FrameFootprint:
        """Current memory-like sizes, as Table I reports them."""
        return FrameFootprint(
            code=len(self.code),
            input=len(self.message.data),
            memory=self.memory.size,
            return_data=len(self.return_data),
            storage_keys=len(self.storage_keys_touched),
        )


# How far the scan moves past each opcode: 1, plus the immediate of
# PUSH1..PUSH32.
_SCAN_STEP = bytes(1 + push_size(opcode) for opcode in range(256))


@functools.lru_cache(maxsize=256)
def analyze_jumpdests(code: bytes) -> frozenset[int]:
    """Positions of JUMPDEST bytes that are not inside PUSH immediates.

    A pure function of the code, and every frame of a contract asks
    again: repeats are answered from a bounded cache keyed by the code
    itself (one-off initcode simply cycles through it).
    """
    valid = []
    pc = 0
    length = len(code)
    step = _SCAN_STEP
    while pc < length:
        opcode = code[pc]
        if opcode == JUMPDEST:
            valid.append(pc)
        pc += step[opcode]
    return frozenset(valid)


@dataclass
class Log:
    """One LOG entry in a transaction trace."""

    address: Address
    topics: list[int]
    data: bytes


@dataclass
class CallRecord:
    """One node of the call tree recorded by the tracer."""

    kind: str  # CALL / DELEGATECALL / STATICCALL / CALLCODE / CREATE / CREATE2
    sender: Address
    to: Address
    value: int
    input: bytes
    gas: int
    depth: int
    output: bytes = b""
    success: bool = True
    error: str | None = None
    calls: list["CallRecord"] = field(default_factory=list)
