"""EVM bytecode disassembler.

The inverse of :mod:`repro.workloads.asm`: turns bytecode back into an
instruction listing with resolved PUSH immediates and jump-destination
annotations.  Used by the CLI's ``disasm``
command and by tests as an assembler round-trip oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.evm import opcodes


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    offset: int
    opcode: int
    mnemonic: str
    immediate: int | None = None  # PUSH payload

    def render(self) -> str:
        if self.immediate is not None:
            return f"{self.offset:#06x}: {self.mnemonic} 0x{self.immediate:x}"
        return f"{self.offset:#06x}: {self.mnemonic}"


def disassemble(code: bytes) -> list[Instruction]:
    """Decode ``code`` into instructions.

    Truncated PUSH immediates at the end of code are zero-extended, as
    the EVM does at runtime.  Unknown opcodes decode as ``INVALID(..)``
    placeholders rather than failing, since deployed bytecode routinely
    carries metadata sections.
    """
    out: list[Instruction] = []
    pc = 0
    length = len(code)
    while pc < length:
        opcode = code[pc]
        entry = opcodes.info(opcode)
        size = opcodes.push_size(opcode)
        if size:
            raw = code[pc + 1:pc + 1 + size]
            immediate = int.from_bytes(raw.ljust(size, b"\x00"), "big")
            out.append(Instruction(pc, opcode, entry.name, immediate))
            pc += 1 + size
            continue
        mnemonic = entry.name if entry else f"INVALID(0x{opcode:02x})"
        out.append(Instruction(pc, opcode, mnemonic))
        pc += 1
    return out


def format_listing(code: bytes) -> str:
    """Human-readable disassembly listing, jump targets marked."""
    from repro.evm.frame import analyze_jumpdests

    valid = analyze_jumpdests(code)
    lines = []
    for instruction in disassemble(code):
        line = instruction.render()
        if instruction.offset in valid:
            line += "    ; <- jump target"
        lines.append(line)
    return "\n".join(lines)


def selector_candidates(code: bytes) -> list[int]:
    """4-byte ABI selectors compared against in the dispatch prologue.

    Heuristic used by contract-analysis tooling: every ``PUSH4 x`` whose
    next instruction is ``EQ`` is almost certainly a function selector.
    """
    instructions = disassemble(code)
    selectors = []
    for current, following in zip(instructions, instructions[1:]):
        if (
            current.mnemonic == "PUSH4"
            and following.mnemonic == "EQ"
            and current.immediate is not None
        ):
            selectors.append(current.immediate)
    return selectors
