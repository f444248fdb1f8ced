"""Property tests: assembler/disassembler round trips."""

from hypothesis import given, settings, strategies as st

from repro.evm.disassembler import disassemble
from repro.workloads.asm import assemble

# -- assembler / disassembler -----------------------------------------------------

_mnemonics = st.sampled_from([
    "ADD", "MUL", "SUB", "POP", "MLOAD", "MSTORE", "SLOAD", "DUP1",
    "SWAP1", "CALLER", "STOP", "JUMPDEST", "RETURN", "PUSH0",
])

_items = st.lists(
    st.one_of(
        _mnemonics.map(lambda m: [m]),
        st.tuples(
            st.integers(min_value=1, max_value=32),
            st.integers(min_value=0),
        ).map(lambda t: [f"PUSH{t[0]}", t[1] % (1 << (8 * t[0]))]),
    ),
    min_size=1,
    max_size=30,
).map(lambda groups: [item for group in groups for item in group])


@given(_items)
@settings(max_examples=120, deadline=None)
def test_assemble_disassemble_roundtrip(items):
    code = assemble(items)
    rebuilt: list = []
    for instruction in disassemble(code):
        rebuilt.append(instruction.mnemonic)
        if instruction.immediate is not None:
            rebuilt.append(instruction.immediate)
    assert assemble(rebuilt) == code


@given(st.binary(max_size=200))
@settings(max_examples=100, deadline=None)
def test_disassemble_total_on_arbitrary_bytes(data):
    """Disassembly never crashes and covers every byte exactly once."""
    instructions = disassemble(data)
    covered = 0
    for instruction in instructions:
        assert instruction.offset == covered
        width = 1
        if instruction.immediate is not None and instruction.mnemonic.startswith("PUSH"):
            width += int(instruction.mnemonic[4:])
        covered += width
    # The last PUSH may declare more immediate bytes than remain.
    assert covered >= len(data)
