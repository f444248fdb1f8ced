"""The EVM instruction set: opcode values, names, and static metadata.

Instruction groups follow the paper's Figure 2 taxonomy (ARITHMETIC,
JUMP, frame-state query, STACK, MEMORY, STORAGE, CALL-RETURN) so the
hardware timing model and Figure 5 benchmarks can classify retired
instructions the same way the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Group(Enum):
    """Instruction groups, per the paper's programming-model figure."""

    ARITHMETIC = "arithmetic"
    COMPARISON = "comparison"
    SHA3 = "sha3"
    FRAME_STATE = "frame_state"
    BLOCK = "block"
    STACK = "stack"
    MEMORY = "memory"
    STORAGE = "storage"
    JUMP = "jump"
    LOG = "log"
    CALL_RETURN = "call_return"
    HALT = "halt"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata for one opcode."""

    value: int
    name: str
    pops: int
    pushes: int
    base_gas: int
    group: Group


_TABLE: dict[int, OpcodeInfo] = {}


def _op(value: int, name: str, pops: int, pushes: int, gas: int, group: Group) -> int:
    _TABLE[value] = OpcodeInfo(value, name, pops, pushes, gas, group)
    return value


# --- 0x00s: stop and arithmetic -------------------------------------------
STOP = _op(0x00, "STOP", 0, 0, 0, Group.HALT)
ADD = _op(0x01, "ADD", 2, 1, 3, Group.ARITHMETIC)
MUL = _op(0x02, "MUL", 2, 1, 5, Group.ARITHMETIC)
SUB = _op(0x03, "SUB", 2, 1, 3, Group.ARITHMETIC)
DIV = _op(0x04, "DIV", 2, 1, 5, Group.ARITHMETIC)
SDIV = _op(0x05, "SDIV", 2, 1, 5, Group.ARITHMETIC)
MOD = _op(0x06, "MOD", 2, 1, 5, Group.ARITHMETIC)
SMOD = _op(0x07, "SMOD", 2, 1, 5, Group.ARITHMETIC)
ADDMOD = _op(0x08, "ADDMOD", 3, 1, 8, Group.ARITHMETIC)
MULMOD = _op(0x09, "MULMOD", 3, 1, 8, Group.ARITHMETIC)
EXP = _op(0x0A, "EXP", 2, 1, 10, Group.ARITHMETIC)
SIGNEXTEND = _op(0x0B, "SIGNEXTEND", 2, 1, 5, Group.ARITHMETIC)

# --- 0x10s: comparison and bitwise -----------------------------------------
LT = _op(0x10, "LT", 2, 1, 3, Group.COMPARISON)
GT = _op(0x11, "GT", 2, 1, 3, Group.COMPARISON)
SLT = _op(0x12, "SLT", 2, 1, 3, Group.COMPARISON)
SGT = _op(0x13, "SGT", 2, 1, 3, Group.COMPARISON)
EQ = _op(0x14, "EQ", 2, 1, 3, Group.COMPARISON)
ISZERO = _op(0x15, "ISZERO", 1, 1, 3, Group.COMPARISON)
AND = _op(0x16, "AND", 2, 1, 3, Group.COMPARISON)
OR = _op(0x17, "OR", 2, 1, 3, Group.COMPARISON)
XOR = _op(0x18, "XOR", 2, 1, 3, Group.COMPARISON)
NOT = _op(0x19, "NOT", 1, 1, 3, Group.COMPARISON)
BYTE = _op(0x1A, "BYTE", 2, 1, 3, Group.COMPARISON)
SHL = _op(0x1B, "SHL", 2, 1, 3, Group.COMPARISON)
SHR = _op(0x1C, "SHR", 2, 1, 3, Group.COMPARISON)
SAR = _op(0x1D, "SAR", 2, 1, 3, Group.COMPARISON)

# --- 0x20: SHA3 -------------------------------------------------------------
SHA3 = _op(0x20, "SHA3", 2, 1, 30, Group.SHA3)

# --- 0x30s-0x40s: frame state and block queries -----------------------------
ADDRESS = _op(0x30, "ADDRESS", 0, 1, 2, Group.FRAME_STATE)
BALANCE = _op(0x31, "BALANCE", 1, 1, 0, Group.STORAGE)
ORIGIN = _op(0x32, "ORIGIN", 0, 1, 2, Group.FRAME_STATE)
CALLER = _op(0x33, "CALLER", 0, 1, 2, Group.FRAME_STATE)
CALLVALUE = _op(0x34, "CALLVALUE", 0, 1, 2, Group.FRAME_STATE)
CALLDATALOAD = _op(0x35, "CALLDATALOAD", 1, 1, 3, Group.MEMORY)
CALLDATASIZE = _op(0x36, "CALLDATASIZE", 0, 1, 2, Group.FRAME_STATE)
CALLDATACOPY = _op(0x37, "CALLDATACOPY", 3, 0, 3, Group.MEMORY)
CODESIZE = _op(0x38, "CODESIZE", 0, 1, 2, Group.FRAME_STATE)
CODECOPY = _op(0x39, "CODECOPY", 3, 0, 3, Group.MEMORY)
GASPRICE = _op(0x3A, "GASPRICE", 0, 1, 2, Group.FRAME_STATE)
EXTCODESIZE = _op(0x3B, "EXTCODESIZE", 1, 1, 0, Group.STORAGE)
EXTCODECOPY = _op(0x3C, "EXTCODECOPY", 4, 0, 0, Group.STORAGE)
RETURNDATASIZE = _op(0x3D, "RETURNDATASIZE", 0, 1, 2, Group.FRAME_STATE)
RETURNDATACOPY = _op(0x3E, "RETURNDATACOPY", 3, 0, 3, Group.MEMORY)
EXTCODEHASH = _op(0x3F, "EXTCODEHASH", 1, 1, 0, Group.STORAGE)
BLOCKHASH = _op(0x40, "BLOCKHASH", 1, 1, 20, Group.BLOCK)
COINBASE = _op(0x41, "COINBASE", 0, 1, 2, Group.BLOCK)
TIMESTAMP = _op(0x42, "TIMESTAMP", 0, 1, 2, Group.BLOCK)
NUMBER = _op(0x43, "NUMBER", 0, 1, 2, Group.BLOCK)
PREVRANDAO = _op(0x44, "PREVRANDAO", 0, 1, 2, Group.BLOCK)
GASLIMIT = _op(0x45, "GASLIMIT", 0, 1, 2, Group.BLOCK)
CHAINID = _op(0x46, "CHAINID", 0, 1, 2, Group.BLOCK)
SELFBALANCE = _op(0x47, "SELFBALANCE", 0, 1, 5, Group.FRAME_STATE)
BASEFEE = _op(0x48, "BASEFEE", 0, 1, 2, Group.BLOCK)

# --- 0x50s: stack, memory, storage, flow ------------------------------------
POP = _op(0x50, "POP", 1, 0, 2, Group.STACK)
MLOAD = _op(0x51, "MLOAD", 1, 1, 3, Group.MEMORY)
MSTORE = _op(0x52, "MSTORE", 2, 0, 3, Group.MEMORY)
MSTORE8 = _op(0x53, "MSTORE8", 2, 0, 3, Group.MEMORY)
SLOAD = _op(0x54, "SLOAD", 1, 1, 0, Group.STORAGE)
SSTORE = _op(0x55, "SSTORE", 2, 0, 0, Group.STORAGE)
JUMP = _op(0x56, "JUMP", 1, 0, 8, Group.JUMP)
JUMPI = _op(0x57, "JUMPI", 2, 0, 10, Group.JUMP)
PC = _op(0x58, "PC", 0, 1, 2, Group.FRAME_STATE)
MSIZE = _op(0x59, "MSIZE", 0, 1, 2, Group.FRAME_STATE)
GAS = _op(0x5A, "GAS", 0, 1, 2, Group.FRAME_STATE)
JUMPDEST = _op(0x5B, "JUMPDEST", 0, 0, 1, Group.JUMP)
PUSH0 = _op(0x5F, "PUSH0", 0, 1, 2, Group.STACK)

# --- 0x60-0x7f: PUSH1..PUSH32 ------------------------------------------------
for _n in range(1, 33):
    _op(0x5F + _n, f"PUSH{_n}", 0, 1, 3, Group.STACK)
PUSH1 = 0x60
PUSH32 = 0x7F

# --- 0x80-0x9f: DUP1..DUP16, SWAP1..SWAP16 -----------------------------------
for _n in range(1, 17):
    _op(0x7F + _n, f"DUP{_n}", _n, _n + 1, 3, Group.STACK)
    _op(0x8F + _n, f"SWAP{_n}", _n + 1, _n + 1, 3, Group.STACK)
DUP1 = 0x80
SWAP1 = 0x90

# --- 0xa0s: logging -----------------------------------------------------------
LOG0 = _op(0xA0, "LOG0", 2, 0, 375, Group.LOG)
LOG1 = _op(0xA1, "LOG1", 3, 0, 375, Group.LOG)
LOG2 = _op(0xA2, "LOG2", 4, 0, 375, Group.LOG)
LOG3 = _op(0xA3, "LOG3", 5, 0, 375, Group.LOG)
LOG4 = _op(0xA4, "LOG4", 6, 0, 375, Group.LOG)

# --- 0xf0s: call/return --------------------------------------------------------
CREATE = _op(0xF0, "CREATE", 3, 1, 32000, Group.CALL_RETURN)
CALL = _op(0xF1, "CALL", 7, 1, 0, Group.CALL_RETURN)
CALLCODE = _op(0xF2, "CALLCODE", 7, 1, 0, Group.CALL_RETURN)
RETURN = _op(0xF3, "RETURN", 2, 0, 0, Group.HALT)
DELEGATECALL = _op(0xF4, "DELEGATECALL", 6, 1, 0, Group.CALL_RETURN)
CREATE2 = _op(0xF5, "CREATE2", 4, 1, 32000, Group.CALL_RETURN)
STATICCALL = _op(0xFA, "STATICCALL", 6, 1, 0, Group.CALL_RETURN)
REVERT = _op(0xFD, "REVERT", 2, 0, 0, Group.HALT)
INVALID = _op(0xFE, "INVALID", 0, 0, 0, Group.HALT)
SELFDESTRUCT = _op(0xFF, "SELFDESTRUCT", 1, 0, 5000, Group.HALT)


def info(opcode: int) -> OpcodeInfo | None:
    """Metadata for ``opcode``, or None if unassigned."""
    return _TABLE.get(opcode)


def name(opcode: int) -> str:
    entry = _TABLE.get(opcode)
    return entry.name if entry else f"INVALID(0x{opcode:02x})"


def is_push(opcode: int) -> bool:
    return PUSH1 <= opcode <= PUSH32


def push_size(opcode: int) -> int:
    """Immediate size in bytes for PUSH1..PUSH32 (0 otherwise)."""
    if is_push(opcode):
        return opcode - 0x5F
    return 0


ALL_OPCODES = dict(_TABLE)

# Group name by opcode byte, ``None`` where unassigned: what a tracer on
# the per-step path indexes instead of ``info(opcode).group.value``.
GROUP_NAMES: list[str | None] = [
    _TABLE[value].group.value if value in _TABLE else None for value in range(256)
]
