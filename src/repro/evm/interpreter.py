"""The EVM interpreter: the functional core shared by every executor.

This is the module the paper's HEVM, the Geth baseline, and the node's
ground-truth tracer all share — they differ only in which
:class:`~repro.state.backend.StateBackend` feeds it and which timing
model consumes its event stream.  The four-stage pipelined hardware EVM
of the paper is *functionally equivalent to the interpreter module of
Geth* (§IV-B), which is exactly the property this class provides.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.evm.exceptions import FrameError, InvalidOpcode
from repro.evm.frame import CALL_DEPTH_LIMIT, ExecutionFrame, Message
from repro.evm.instructions import STEP_TABLE
from repro.evm.precompiles import PRECOMPILES
from repro.evm.tracer import Tracer
from repro.state.account import Address
from repro.state.blocks import BlockHeader
from repro.state.journal import JournaledState


@dataclass
class ChainContext:
    """Block-level environment the EVM can query."""

    header: BlockHeader
    block_hashes: dict[int, bytes] | None = None

    def block_hash(self, number: int) -> bytes:
        if self.block_hashes and number in self.block_hashes:
            return self.block_hashes[number]
        if 0 <= self.header.number - number <= 256:
            # Deterministic stand-in for unknown ancestors.
            from repro.crypto.keccak import keccak256

            return keccak256(b"blockhash" + number.to_bytes(32, "big"))
        return b"\x00" * 32


@dataclass
class FrameResult:
    """Outcome of one execution frame."""

    success: bool
    output: bytes
    gas_left: int
    error: str | None = None


# The interpreter recurses one Python call chain per EVM frame; the EVM
# allows 1024 frames, each costing a handful of Python frames, so the
# default 1000-frame Python limit is far too low for deep call trees.
_REQUIRED_RECURSION_LIMIT = 30_000


def _ensure_recursion_headroom() -> None:
    if sys.getrecursionlimit() < _REQUIRED_RECURSION_LIMIT:
        sys.setrecursionlimit(_REQUIRED_RECURSION_LIMIT)


_ensure_recursion_headroom()  # once, at import time


class Interpreter:
    """Executes messages against a journaled state."""

    def __init__(
        self,
        state: JournaledState,
        chain: ChainContext,
        tracer: Tracer | None = None,
        origin: Address = b"\x00" * 20,
        gas_price: int = 1,
    ) -> None:
        self.state = state
        self.chain = chain
        self.tracer = tracer or Tracer()
        self.origin = origin
        self.gas_price = gas_price
        self.logs: list[tuple[Address, list[int], bytes]] = []

    # ------------------------------------------------------------------
    # Message execution (CALL family)
    # ------------------------------------------------------------------

    def execute_message(
        self, message: Message, kind: str = "CALL", transfer_value: bool = True
    ) -> FrameResult:
        """Run a call message in a child frame with snapshot semantics."""
        if message.depth > CALL_DEPTH_LIMIT:
            return FrameResult(False, b"", 0, "call depth exceeded")

        snapshot = self.state.snapshot()
        if transfer_value and message.value:
            if self.state.get_balance(message.caller) < message.value:
                return FrameResult(False, b"", message.gas, "insufficient balance")
            self.state.sub_balance(message.caller, message.value)
            self.state.add_balance(message.to, message.value)

        precompile = PRECOMPILES.get(message.code_address)
        if precompile is not None:
            try:
                cost, output = precompile(message.data)
            except Exception:
                # Broad on purpose: calldata is attacker-chosen, and any
                # precompile error is a failed call that burns the gas.
                self.state.revert(snapshot)
                return FrameResult(False, b"", 0, "precompile failure")
            if cost > message.gas:
                self.state.revert(snapshot)
                return FrameResult(False, b"", 0, "out of gas")
            return FrameResult(True, output, message.gas - cost)

        code = self.state.get_code(message.code_address)
        self.tracer.on_code_fetch(message.code_address, len(code))
        frame = ExecutionFrame(message, code)
        self.tracer.on_frame_enter(frame, kind)
        error = self._run(frame)
        if error is not None or frame.reverted:
            self.state.revert(snapshot)
        self.tracer.on_frame_exit(
            frame, kind, error or ("execution reverted" if frame.reverted else None)
        )
        if error is not None:
            return FrameResult(False, frame.output, 0, error)
        if frame.reverted:
            return FrameResult(False, frame.output, frame.gas, "execution reverted")
        return FrameResult(True, frame.output, frame.gas)

    def execute_create(self, message: Message, init_code: bytes) -> FrameResult:
        """Run init code and deploy the resulting runtime code."""
        from repro.evm import gas as gas_rules

        if message.depth > CALL_DEPTH_LIMIT:
            return FrameResult(False, b"", 0, "call depth exceeded")

        sender = message.caller
        # Collision check (EIP-684).
        if (
            self.state.get_code(message.to)
            or self.state.get_nonce(message.to) != 0
        ):
            return FrameResult(False, b"", 0, "contract address collision")

        snapshot = self.state.snapshot()
        self.state.increment_nonce(sender)
        self.state.warm_address(message.to)
        if message.value:
            if self.state.get_balance(sender) < message.value:
                self.state.revert(snapshot)
                return FrameResult(False, b"", message.gas, "insufficient balance")
            self.state.sub_balance(sender, message.value)
            self.state.add_balance(message.to, message.value)
        self.state.set_nonce(message.to, 1)
        self.state.set_code(message.to, b"")

        frame = ExecutionFrame(message, init_code)
        self.tracer.on_frame_enter(frame, "CREATE")
        error = self._run(frame)
        deployed: bytes = frame.output
        if error is None and not frame.reverted:
            deposit = gas_rules.CREATE_DEPOSIT_PER_BYTE * len(deployed)
            if len(deployed) > gas_rules.MAX_CODE_SIZE:
                error = "max code size exceeded"
            elif deployed[:1] == b"\xef":
                error = "invalid code: EF prefix (EIP-3541)"
            elif deposit > frame.gas:
                error = "out of gas: code deposit"
            else:
                frame.gas -= deposit
                self.state.set_code(message.to, deployed)
        if error is not None or frame.reverted:
            self.state.revert(snapshot)
        self.tracer.on_frame_exit(
            frame, "CREATE", error or ("execution reverted" if frame.reverted else None)
        )
        if error is not None:
            return FrameResult(False, b"", 0, error)
        if frame.reverted:
            return FrameResult(False, frame.output, frame.gas, "execution reverted")
        return FrameResult(True, deployed, frame.gas)

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------

    def _run(self, frame: ExecutionFrame) -> str | None:
        """Execute the frame to completion; returns an error string or None.

        Per step, in this order: the tracer sees the step (pc, gas and
        stack as they are *before* it), the static gas is charged, the
        handler runs, and the pc advances unless the handler moved it.
        """
        frame.halted = False
        code = frame.code
        code_length = len(code)
        on_step = self.tracer.on_step
        table = STEP_TABLE
        try:
            while not frame.halted:
                if frame.pc >= code_length:
                    # Implicit STOP past the end of code.
                    frame.output = b""
                    break
                opcode = code[frame.pc]
                row = table[opcode]
                if row is None:
                    raise InvalidOpcode(opcode)
                handler, base_gas, pc_advance = row
                on_step(frame, opcode)
                if base_gas > frame.gas:
                    frame.use_gas(base_gas)  # raises OutOfGas, gas zeroed
                frame.gas -= base_gas
                if not handler(self, frame):
                    frame.pc += pc_advance
        except FrameError as exc:
            frame.gas = 0
            return type(exc).__name__ + ": " + str(exc)
        return None
