"""EVM execution errors.

Frame-level errors (:class:`FrameError` subclasses) consume the frame's
remaining gas and fail the frame — except :class:`Revert`, which refunds
remaining gas and returns data, per the EVM spec.
"""

from __future__ import annotations


class EvmError(Exception):
    """Base class for all EVM execution errors."""


class FrameError(EvmError):
    """An error that terminates the current execution frame."""


class StackUnderflow(FrameError):
    pass


class StackOverflow(FrameError):
    pass


class OutOfGas(FrameError):
    pass


class InvalidJump(FrameError):
    pass


class InvalidOpcode(FrameError):
    def __init__(self, opcode: int) -> None:
        super().__init__(f"invalid opcode 0x{opcode:02x}")
        self.opcode = opcode


class WriteProtection(FrameError):
    """State modification attempted inside STATICCALL."""


class ReturnDataOutOfBounds(FrameError):
    pass


class Revert(FrameError):
    """Explicit REVERT: remaining gas is returned, data propagated."""

    def __init__(self, data: bytes) -> None:
        super().__init__("execution reverted")
        self.data = data


class InvalidTransaction(EvmError):
    """Transaction-level validation failure (nonce, balance, intrinsic gas)."""
