"""EVM building blocks: stack, memory, gas schedule, opcode table, asm."""

import pytest

from repro.evm import gas, opcodes
from repro.evm.exceptions import StackOverflow, StackUnderflow
from repro.evm.frame import analyze_jumpdests
from repro.evm.memory import Memory, read_padded
from repro.evm.stack import STACK_LIMIT, Stack
from repro.workloads.asm import assemble, deployer, label, push, push_label, raw


# -- stack ------------------------------------------------------------------


def test_stack_push_pop():
    stack = Stack()
    stack.push(1)
    stack.push(2)
    assert stack.pop() == 2
    assert stack.pop() == 1


def test_stack_wraps_to_256_bits():
    stack = Stack()
    stack.push(2**256 + 5)
    assert stack.pop() == 5


def test_stack_underflow():
    with pytest.raises(StackUnderflow):
        Stack().pop()
    with pytest.raises(StackUnderflow):
        Stack().pop_many(1)


def test_stack_overflow_at_1024():
    stack = Stack()
    for i in range(STACK_LIMIT):
        stack.push(i)
    with pytest.raises(StackOverflow):
        stack.push(0)


def test_stack_dup_swap():
    stack = Stack()
    for i in (1, 2, 3):
        stack.push(i)
    stack.dup(3)  # copy the 1
    assert stack.peek() == 1
    stack.swap(3)  # swap top with 4th
    assert stack.pop() == 1
    assert stack.snapshot() == [1, 2, 3]


def test_stack_pop_many_order():
    stack = Stack()
    for i in (1, 2, 3):
        stack.push(i)
    assert stack.pop_many(3) == [3, 2, 1]


# -- memory ------------------------------------------------------------------


def test_memory_word_aligned_expansion():
    memory = Memory()
    memory.expand_to(0, 1)
    assert memory.size == 32
    memory.expand_to(33, 1)
    assert memory.size == 64


def test_memory_zero_length_does_not_expand():
    memory = Memory()
    memory.expand_to(1000, 0)
    assert memory.size == 0


def test_memory_read_write():
    memory = Memory()
    memory.expand_to(10, 4)
    memory.write(10, b"abcd")
    assert memory.read(10, 4) == b"abcd"
    assert memory.read(0, 2) == b"\x00\x00"


def test_read_padded():
    assert read_padded(b"abc", 1, 4) == b"bc\x00\x00"
    assert read_padded(b"abc", 10, 3) == b"\x00\x00\x00"
    assert read_padded(b"abc", 0, 0) == b""


# -- gas schedule --------------------------------------------------------------


def test_memory_cost_quadratic():
    assert gas.memory_cost(0) == 0
    assert gas.memory_cost(1) == 3
    assert gas.memory_cost(32) == 32 * 3 + 32 * 32 // 512


def test_memory_expansion_cost_is_delta():
    cost_0_to_2 = gas.memory_expansion_cost(0, 32, 32)
    cost_1_to_2 = gas.memory_expansion_cost(32, 32, 32)
    assert cost_0_to_2 == gas.memory_cost(2)
    assert cost_1_to_2 == gas.memory_cost(2) - gas.memory_cost(1)
    assert gas.memory_expansion_cost(64, 0, 32) == 0


def test_intrinsic_gas():
    assert gas.intrinsic_gas(b"", False) == 21_000
    assert gas.intrinsic_gas(b"\x00", False) == 21_004
    assert gas.intrinsic_gas(b"\x01", False) == 21_016
    create = gas.intrinsic_gas(b"\x01" * 32, True)
    assert create == 21_000 + 32_000 + 16 * 32 + 2  # one initcode word


def test_exp_cost_by_exponent_size():
    assert gas.exp_cost(0) == 0
    assert gas.exp_cost(1) == 50
    assert gas.exp_cost(256) == 100
    assert gas.exp_cost(2**255) == 50 * 32


def test_sstore_outcomes():
    # No-op write.
    assert gas.sstore_outcome(0, 5, 5).gas == gas.WARM_ACCESS
    # Fresh set.
    out = gas.sstore_outcome(0, 0, 5)
    assert out.gas == gas.SSTORE_SET and out.refund_delta == 0
    # Reset existing.
    out = gas.sstore_outcome(9, 9, 5)
    assert out.gas == gas.SSTORE_RESET
    # Clear existing refunds.
    out = gas.sstore_outcome(9, 9, 0)
    assert out.refund_delta == gas.SSTORE_CLEAR_REFUND
    # Dirty restore to original value.
    out = gas.sstore_outcome(9, 5, 9)
    assert out.gas == gas.WARM_ACCESS
    assert out.refund_delta == gas.SSTORE_RESET + gas.COLD_SLOAD - gas.WARM_ACCESS


def test_max_call_gas_63_64():
    assert gas.max_call_gas(6400) == 6400 - 100


# -- opcode table ------------------------------------------------------------------


def test_opcode_table_coverage():
    # All PUSH/DUP/SWAP/LOG families present.
    for n in range(1, 33):
        assert opcodes.name(0x5F + n) == f"PUSH{n}"
    for n in range(1, 17):
        assert opcodes.name(0x7F + n) == f"DUP{n}"
        assert opcodes.name(0x8F + n) == f"SWAP{n}"
    assert opcodes.push_size(0x60) == 1
    assert opcodes.push_size(0x7F) == 32
    assert opcodes.push_size(0x01) == 0
    assert opcodes.info(0xEF) is None


def test_every_opcode_has_a_handler():
    from repro.evm.instructions import DISPATCH

    for value in opcodes.ALL_OPCODES:
        assert value in DISPATCH, f"no handler for {opcodes.name(value)}"


def test_jumpdest_analysis_skips_push_immediates():
    # PUSH2 0x5B5B embeds JUMPDEST bytes that are NOT valid targets.
    code = assemble(["PUSH2", 0x5B5B, "JUMPDEST", "STOP"])
    valid = analyze_jumpdests(code)
    assert valid == {3}


def _scan_with_push_size(code: bytes) -> set[int]:
    """The scan as it ran before the skip table: ``push_size`` per opcode."""
    valid, pc = set(), 0
    while pc < len(code):
        if code[pc] == opcodes.JUMPDEST:
            valid.add(pc)
        pc += 1 + opcodes.push_size(code[pc])
    return valid


@pytest.mark.parametrize(
    "code",
    [
        b"",
        assemble(["PUSH2", 0x5B5B, "JUMPDEST", "STOP"]),  # immediates hide 0x5b
        b"\x5b\x7f\x5b\x5b",  # PUSH32 with two bytes of immediate left
        b"\x5b\x60",  # PUSH1 with none
        b"\x5b" * 40,
        bytes(range(256)) * 3,  # every opcode, every PUSH width
        bytes(reversed(range(256))) * 3,
    ],
    ids=["empty", "hidden", "truncated-push32", "truncated-push1", "all-jumpdest",
         "every-opcode", "every-opcode-reversed"],
)
def test_jumpdest_analysis_cached_equals_uncached(code):
    analyze_jumpdests.cache_clear()
    scanned = analyze_jumpdests(code)
    # An equal but distinct bytes object is the same code: a hit.
    answered = analyze_jumpdests(bytes(bytearray(code)))
    assert scanned == answered == analyze_jumpdests.__wrapped__(code)
    assert scanned == _scan_with_push_size(code)
    info = analyze_jumpdests.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# -- assembler ---------------------------------------------------------------------


def test_assemble_push_immediates():
    assert assemble(["PUSH1", 0xAA]) == b"\x60\xaa"
    assert assemble(["PUSH2", 0xBEEF]) == b"\x61\xbe\xef"
    assert assemble(push(0)) == b"\x5f"
    assert assemble(push(300)) == b"\x61\x01\x2c"


def test_assemble_labels():
    code = assemble(
        [push_label("end"), "JUMP", "INVALID", label("end"), "JUMPDEST", "STOP"]
    )
    # PUSH2 0x0005 JUMP INVALID JUMPDEST STOP
    assert code == b"\x61\x00\x05\x56\xfe\x5b\x00"


def test_assemble_raw_bytes():
    assert assemble([raw(b"\xde\xad"), "STOP"]) == b"\xde\xad\x00"


def test_assemble_errors():
    with pytest.raises(ValueError):
        assemble(["NOTANOP"])
    with pytest.raises(ValueError):
        assemble([push_label("missing"), "JUMP"])
    with pytest.raises(ValueError):
        assemble([label("a"), label("a")])
    with pytest.raises(ValueError):
        assemble([42])


def test_deployer_wraps_runtime():
    runtime = assemble(push(1) + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"])
    init = deployer(runtime)
    assert init.endswith(runtime)
    assert len(init) > len(runtime)
