"""A from-scratch Ethereum Virtual Machine.

256-bit stack architecture with the full Shanghai-era instruction set,
Berlin/London gas rules (EIP-2929 warm/cold access, EIP-2200/3529 SSTORE
metering, EIP-150 call-gas forwarding), precompiles, and pluggable
tracers.  This is the functional core behind the paper's HEVM, the Geth
baseline, and the simulated full node.
"""

from repro.evm import disassembler, opcodes
from repro.evm.exceptions import (
    EvmError,
    FrameError,
    InvalidJump,
    InvalidOpcode,
    InvalidTransaction,
    OutOfGas,
    Revert,
    StackOverflow,
    StackUnderflow,
    WriteProtection,
)
from repro.evm.executor import TransactionResult, execute_transaction
from repro.evm.frame import CallRecord, ExecutionFrame, FrameFootprint, Log, Message
from repro.evm.interpreter import ChainContext, FrameResult, Interpreter
from repro.evm.tracer import (
    CallTracer,
    CountingTracer,
    EventCounts,
    MultiTracer,
    StructLog,
    StructTracer,
    Tracer,
)

__all__ = [
    "CallRecord",
    "CallTracer",
    "ChainContext",
    "CountingTracer",
    "EventCounts",
    "EvmError",
    "ExecutionFrame",
    "FrameError",
    "FrameFootprint",
    "FrameResult",
    "Interpreter",
    "InvalidJump",
    "InvalidOpcode",
    "InvalidTransaction",
    "Log",
    "Message",
    "MultiTracer",
    "OutOfGas",
    "Revert",
    "StackOverflow",
    "StackUnderflow",
    "StructLog",
    "StructTracer",
    "Tracer",
    "TransactionResult",
    "WriteProtection",
    "disassembler",
    "execute_transaction",
    "opcodes",
]
