"""Property-based tests: EVM arithmetic vs Python ints, journal vs model,
ORAM vs dict, and the L2 ring's conservation invariants."""

from hypothesis import given, settings, strategies as st

from repro.crypto.kdf import Drbg
from repro.evm.executor import execute_transaction
from repro.evm.interpreter import ChainContext
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.state.account import to_address
from repro.state.backend import DictBackend
from repro.state.blocks import BlockHeader, Transaction
from repro.state.journal import JournaledState
from repro.workloads.asm import assemble, push

WORD = 2**256
ALICE = to_address(0xA1)
TARGET = to_address(0xE7)

_HEADER = BlockHeader(
    number=1, parent_hash=b"\x00" * 32, state_root=b"\x00" * 32,
    timestamp=0, coinbase=to_address(0xC0),
)


def _eval_binop(op: str, a: int, b: int) -> int:
    backend = DictBackend()
    backend.ensure(ALICE).balance = 10**18
    backend.ensure(TARGET).code = assemble(
        ["PUSH32", b, "PUSH32", a, op]
        + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]
    )
    state = JournaledState(backend)
    result = execute_transaction(
        state, ChainContext(_HEADER), Transaction(sender=ALICE, to=TARGET)
    )
    assert result.success, result.error
    return int.from_bytes(result.return_data, "big")


words = st.integers(min_value=0, max_value=WORD - 1)


@given(words, words)
@settings(max_examples=30, deadline=None)
def test_add_mod_2_256(a, b):
    assert _eval_binop("ADD", a, b) == (a + b) % WORD


@given(words, words)
@settings(max_examples=30, deadline=None)
def test_mul_mod_2_256(a, b):
    assert _eval_binop("MUL", a, b) == (a * b) % WORD


@given(words, words)
@settings(max_examples=30, deadline=None)
def test_sub_wraps(a, b):
    assert _eval_binop("SUB", a, b) == (a - b) % WORD


@given(words, words)
@settings(max_examples=30, deadline=None)
def test_div_is_floored(a, b):
    assert _eval_binop("DIV", a, b) == (a // b if b else 0)


@given(words, words)
@settings(max_examples=30, deadline=None)
def test_comparisons(a, b):
    assert _eval_binop("LT", a, b) == int(a < b)
    assert _eval_binop("AND", a, b) == a & b


# -- journal vs dict model ------------------------------------------------------

journal_programs = st.lists(
    st.tuples(
        st.sampled_from(["balance", "storage", "snapshot", "revert"]),
        st.integers(min_value=0, max_value=3),   # address index
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=40,
)


@given(journal_programs)
@settings(max_examples=60, deadline=None)
def test_journal_matches_model(program):
    backend = DictBackend()
    addresses = [to_address(i + 1) for i in range(4)]
    for address in addresses:
        backend.ensure(address).balance = 100
    journal = JournaledState(backend)
    model_balances = {address: 100 for address in addresses}
    model_storage: dict[tuple, int] = {}
    snapshots: list[tuple[int, dict, dict]] = []
    for op, index, value in program:
        address = addresses[index]
        if op == "balance":
            journal.set_balance(address, value)
            model_balances[address] = value
        elif op == "storage":
            journal.set_storage(address, index, value)
            model_storage[(address, index)] = value
        elif op == "snapshot":
            snapshots.append(
                (journal.snapshot(), dict(model_balances), dict(model_storage))
            )
        elif op == "revert" and snapshots:
            snap_id, balances, storage = snapshots.pop()
            journal.revert(snap_id)
            model_balances = balances
            model_storage = storage
    for address in addresses:
        assert journal.get_balance(address) == model_balances[address]
    for (address, key), value in model_storage.items():
        assert journal.get_storage(address, key) == value


# -- ORAM vs dict model ------------------------------------------------------------

oram_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(min_value=0, max_value=30),
        st.binary(min_size=1, max_size=32),
    ),
    min_size=1,
    max_size=40,
)


@given(oram_ops)
@settings(max_examples=25, deadline=None)
def test_oram_matches_dict_model(operations):
    server = OramServer(height=5, block_size=64)
    client = PathOramClient(
        server, key=b"k" * 32, block_size=64, rng=Drbg(b"prop")
    )
    model: dict[bytes, bytes] = {}
    for op, key_index, value in operations:
        key = b"key%d" % key_index
        if op == "write":
            client.write(key, value)
            model[key] = value.ljust(64, b"\x00")
        else:
            assert client.read(key) == model.get(key)
    for key, value in model.items():
        assert client.read(key) == value


@given(oram_ops)
@settings(max_examples=15, deadline=None)
def test_oram_write_paths_always_full_shape(operations):
    """Every bucket the server holds is either empty or one ciphertext of
    the fixed length: Z slots sealed together."""
    server = OramServer(height=5, block_size=64)
    client = PathOramClient(server, key=b"k" * 32, block_size=64, rng=Drbg(b"p2"))
    for op, key_index, value in operations:
        key = b"key%d" % key_index
        if op == "write":
            client.write(key, value)
        else:
            client.read(key)
    for bucket in server.snapshot_tree():
        assert len(bucket) in (0, server.bucket_bytes)


# -- layer-2 ring invariants ----------------------------------------------------------

l2_ops = st.lists(
    st.tuples(
        st.sampled_from(["push", "pop", "expand"]),
        st.integers(min_value=1, max_value=60),  # KB
    ),
    max_size=50,
)


@given(l2_ops)
@settings(max_examples=60, deadline=None)
def test_l2_never_exceeds_capacity_and_conserves_pages(operations):
    from repro.hardware.memory_layers import Layer2CallStack, MemoryOverflowError

    l2 = Layer2CallStack(capacity_bytes=128 * 1024, rng=Drbg(b"l2"))
    depth = 0
    for op, size_kb in operations:
        try:
            if op == "push":
                l2.push_frame(size_kb * 1024)
                depth += 1
            elif op == "pop" and depth:
                l2.pop_frame()
                depth -= 1
            elif op == "expand" and depth:
                l2.expand_current(size_kb * 1024)
        except MemoryOverflowError:
            return  # legal outcome for oversized frames
        assert l2.resident_pages <= l2.capacity_pages
        assert l2.depth == depth
    # Swap conservation: everything dumped was either reloaded or still out.
    stats = l2.stats
    assert stats.pages_swapped_in <= stats.pages_swapped_out
