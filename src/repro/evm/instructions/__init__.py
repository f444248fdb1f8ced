"""Instruction handlers, registered into a single dispatch table.

Each handler has signature ``handler(vm, frame)`` where ``vm`` is the
:class:`~repro.evm.interpreter.Interpreter`.  The dispatch loop charges
the opcode's static base gas before invoking the handler; handlers
charge any dynamic gas themselves.  Handlers that change the program
counter (jumps, halts) set ``frame.pc`` / ``frame.halted`` directly and
return ``True`` so the loop skips its normal PC advance.

:data:`STEP_TABLE` is the one place the static opcode metadata of
:mod:`repro.evm.opcodes` meets the handlers: everything the dispatch
loop needs that depends on nothing but the opcode byte, decoded once at
import (the HEVM's decode stage, PAPER §IV-B) and not again per step.
"""

from __future__ import annotations

from typing import Callable

from repro.evm import opcodes

Handler = Callable[..., bool | None]

DISPATCH: dict[int, Handler] = {}


def register(opcode: int) -> Callable[[Handler], Handler]:
    """Decorator registering ``handler`` for ``opcode``."""

    def wrap(handler: Handler) -> Handler:
        if opcode in DISPATCH:
            raise ValueError(f"duplicate handler for opcode 0x{opcode:02x}")
        DISPATCH[opcode] = handler
        return handler

    return wrap


def _load_all() -> None:
    # Import for side effects: each module registers its handlers.
    from repro.evm.instructions import arithmetic  # noqa: F401
    from repro.evm.instructions import environment  # noqa: F401
    from repro.evm.instructions import memory_storage  # noqa: F401
    from repro.evm.instructions import calls  # noqa: F401


_load_all()

# Row ``opcode`` = (handler, static gas, pc advance when the handler did
# not jump); ``None`` exactly where the opcode is unassigned.
STEP_TABLE: list[tuple[Handler, int, int] | None] = [
    (DISPATCH[value], entry.base_gas, 1 + opcodes.push_size(value))
    if (entry := opcodes.info(value)) is not None
    else None
    for value in range(256)
]
