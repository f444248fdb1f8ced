"""Disassembler: decoding, round trips, selector extraction."""

from repro.evm.disassembler import (
    disassemble,
    format_listing,
    selector_candidates,
)
from repro.workloads.asm import assemble, label, push, push_label
from repro.workloads.contracts import erc20


def test_simple_sequence():
    code = assemble(["PUSH1", 0x2A, "PUSH0", "SSTORE", "STOP"])
    listing = disassemble(code)
    assert [i.mnemonic for i in listing] == ["PUSH1", "PUSH0", "SSTORE", "STOP"]
    assert listing[0].immediate == 0x2A
    assert [i.offset for i in listing] == [0, 2, 3, 4]


def test_push32_immediate():
    value = 2**255 + 7
    code = assemble(["PUSH32", value, "POP"])
    listing = disassemble(code)
    assert listing[0].immediate == value
    assert listing[1].offset == 33


def test_truncated_push_zero_extends():
    code = b"\x62\x01"  # PUSH3 with only one immediate byte
    listing = disassemble(code)
    assert listing[0].mnemonic == "PUSH3"
    assert listing[0].immediate == 0x010000


def test_unknown_opcode_decodes_as_invalid():
    listing = disassemble(b"\xef\x00")
    assert listing[0].mnemonic == "INVALID(0xef)"


def test_roundtrip_through_assembler():
    program = (
        push(5) + ["SLOAD"] + push(1) + ["ADD", "DUP1"]
        + push(5) + ["SSTORE", "PUSH0", "MSTORE"]
        + push(32) + ["PUSH0", "RETURN"]
    )
    code = assemble(program)
    # Re-assemble from the disassembly and compare bytes.
    rebuilt_items: list = []
    for instruction in disassemble(code):
        rebuilt_items.append(instruction.mnemonic)
        if instruction.immediate is not None:
            rebuilt_items.append(instruction.immediate)
    assert assemble(rebuilt_items) == code


def test_format_listing_annotates_jump_targets():
    code = assemble(
        [push_label("x"), "JUMP", label("x"), "JUMPDEST", "STOP"]
    )
    listing = format_listing(code)
    assert "; <- jump target" in listing
    assert "JUMP" in listing


def test_selector_extraction_from_erc20():
    selectors = set(selector_candidates(erc20.erc20_runtime()))
    assert erc20.SEL_TRANSFER in selectors
    assert erc20.SEL_BALANCE_OF in selectors
    assert erc20.SEL_TRANSFER_FROM in selectors
    assert len(selectors) == 7


def test_empty_code():
    assert disassemble(b"") == []
