"""Property-based tests for RLP and the Merkle Patricia Trie."""

import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.rlp import codec as rlp
from repro.trie.mpt import MerklePatriciaTrie, verify_proof
from tests.oracles import in_memory_proof, yellow_paper_trie

rlp_items = st.recursive(
    st.binary(max_size=70),
    lambda children: st.lists(children, max_size=6),
    max_leaves=25,
)


@given(rlp_items)
def test_rlp_roundtrip(item):
    assert rlp.decode(rlp.encode(item)) == item


@given(st.integers(min_value=0, max_value=2**300))
def test_rlp_uint_roundtrip(value):
    assert rlp.decode_uint(rlp.encode_uint(value)) == value


@given(rlp_items, rlp_items)
def test_rlp_encoding_injective(a, b):
    if a != b:
        assert rlp.encode(a) != rlp.encode(b)


trie_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete"]),
        st.binary(min_size=1, max_size=6),
        st.binary(min_size=1, max_size=20),
    ),
    max_size=60,
)


@given(trie_ops)
@settings(max_examples=60, deadline=None)
def test_trie_matches_dict_model(operations):
    trie = MerklePatriciaTrie()
    model: dict[bytes, bytes] = {}
    for op, key, value in operations:
        if op == "put":
            trie.put(key, value)
            model[key] = value
        else:
            trie.delete(key)
            model.pop(key, None)
    for key, value in model.items():
        assert trie.get(key) == value
    assert dict(trie.items()) == model


@given(trie_ops)
@settings(max_examples=40, deadline=None)
def test_trie_root_is_content_determined(operations):
    """The root depends only on final contents, not operation history."""
    trie = MerklePatriciaTrie()
    model: dict[bytes, bytes] = {}
    for op, key, value in operations:
        if op == "put":
            trie.put(key, value)
            model[key] = value
        else:
            trie.delete(key)
            model.pop(key, None)
    fresh = MerklePatriciaTrie()
    for key, value in sorted(model.items(), reverse=True):
        fresh.put(key, value)
    assert fresh.root_hash() == trie.root_hash()


@given(trie_ops, st.binary(min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_trie_proofs_always_verify(operations, probe_key):
    trie = MerklePatriciaTrie()
    model: dict[bytes, bytes] = {}
    for op, key, value in operations:
        if op == "put":
            trie.put(key, value)
            model[key] = value
        else:
            trie.delete(key)
            model.pop(key, None)
    root = trie.root_hash()
    proof = trie.prove(probe_key)
    assert verify_proof(root, probe_key, proof) == model.get(probe_key)


interleaved_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.binary(min_size=1, max_size=4),
            # Long values force hashed nodes, short ones embedded nodes.
            st.binary(min_size=1, max_size=40),
        ),
        st.tuples(st.just("delete"), st.binary(min_size=1, max_size=4), st.just(b"")),
        st.tuples(st.just("root_hash"), st.just(b""), st.just(b"")),
        st.tuples(st.just("prove"), st.binary(min_size=1, max_size=4), st.just(b"")),
    ),
    max_size=50,
)


@given(interleaved_ops)
@settings(max_examples=120, deadline=None)
def test_commitment_never_outlives_the_tree_it_committed(operations):
    """Roots and proofs read from the remembered commitment equal those
    of a trie freshly built from the same contents, at every point of
    an interleaved put / delete / root_hash / prove history — including
    prove -> put -> prove — and equal what the in-memory prover the
    commitment replaced derives without it."""
    trie = MerklePatriciaTrie()
    model: dict[bytes, bytes] = {}

    def fresh() -> MerklePatriciaTrie:
        rebuilt = MerklePatriciaTrie()
        for key, value in model.items():
            rebuilt.put(key, value)
        return rebuilt

    for op, key, value in operations:
        if op == "put":
            trie.put(key, value)
            model[key] = value
        elif op == "delete":
            trie.delete(key)
            model.pop(key, None)
        elif op == "root_hash":
            assert trie.root_hash() == fresh().root_hash()
        else:
            proof = trie.prove(key)
            assert proof == fresh().prove(key) == in_memory_proof(trie, key)
            assert verify_proof(trie.root_hash(), key, proof) == model.get(key)
    # A deep copy takes the commitment with it (the e2e sync workload
    # copies its node, tries and all, once per repetition).
    twin = copy.deepcopy(trie)
    for key in list(model) + [b"\x00absent"]:
        assert trie.prove(key) == twin.prove(key) == in_memory_proof(trie, key)
        assert verify_proof(trie.root_hash(), key, trie.prove(key)) == model.get(key)


# Keys over a four-byte alphabet share prefixes, end inside one another
# (a branch's value slot) and split on both nibbles of a byte.
oracle_keys = st.binary(max_size=3).map(
    lambda raw: bytes(b"\x00\x01\x10\xab"[byte % 4] for byte in raw)
)
oracle_histories = st.lists(
    st.tuples(
        oracle_keys,
        # None deletes; short values give embedded nodes and roots whose
        # RLP is under 32 bytes, long ones hashed nodes.
        st.one_of(
            st.none(),
            st.binary(min_size=1, max_size=3),
            st.binary(min_size=30, max_size=40),
        ),
    ),
    max_size=30,
)


@pytest.mark.perf
@given(oracle_histories, st.booleans())
@example([(b"k", b"v")], False)  # one key, a root RLP of 4 bytes
@example([(b"\x00", b"a"), (b"\x00\x01", b"b")], True)  # short branch root
@example([(b"\xab" * 3, b"\x07" * 40)], True)  # one key, a hashed leaf root
@example([(b"k", b"v"), (b"k", None)], True)  # back to the empty trie
@settings(max_examples=150, deadline=None)
def test_trie_commit_equals_the_yellow_paper_trie(history, commit_each_step):
    """The root and node store of a put/delete history equal appendix
    D's ``TRIE(J)`` over the final key/value set.  Committed once at
    the end, the store holds exactly the oracle's hashed nodes;
    committed after every step, each root matches and the final store
    holds them among the older commits' nodes."""
    trie = MerklePatriciaTrie()
    model: dict[bytes, bytes] = {}
    for key, value in history:
        if value is None:
            trie.delete(key)
            model.pop(key, None)
        else:
            trie.put(key, value)
            model[key] = value
        if commit_each_step:
            assert trie.root_hash() == yellow_paper_trie(model)[0]
    root, nodes = yellow_paper_trie(model)
    assert trie.root_hash() == root
    if commit_each_step:
        assert nodes.items() <= trie._store.items()
    else:
        assert trie._store == nodes
