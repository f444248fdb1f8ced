"""Merkle Patricia Trie: roots, deletion, iteration, proofs."""

import pytest

from repro.rlp import codec as rlp
from repro.crypto.keccak import keccak256
from repro.trie.mpt import EMPTY_ROOT, MerklePatriciaTrie, ProofError, verify_proof
from repro.trie.nibbles import (
    bytes_to_nibbles,
    common_prefix_length,
    hp_decode,
    hp_encode,
    nibbles_to_bytes,
)


def test_empty_root_constant():
    assert (
        EMPTY_ROOT.hex()
        == "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
    )
    assert MerklePatriciaTrie().root_hash() == EMPTY_ROOT


def test_canonical_root_vector():
    # From the ethereum/tests trietest suite.
    trie = MerklePatriciaTrie()
    for key, value in [
        (b"do", b"verb"),
        (b"dog", b"puppy"),
        (b"doge", b"coin"),
        (b"horse", b"stallion"),
    ]:
        trie.put(key, value)
    assert (
        trie.root_hash().hex()
        == "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"
    )


def test_insert_order_independence():
    import itertools

    items = [(b"do", b"verb"), (b"dog", b"puppy"), (b"doge", b"coin")]
    roots = set()
    for perm in itertools.permutations(items):
        trie = MerklePatriciaTrie()
        for key, value in perm:
            trie.put(key, value)
        roots.add(trie.root_hash())
    assert len(roots) == 1


def test_get_put_overwrite():
    trie = MerklePatriciaTrie()
    trie.put(b"key", b"v1")
    assert trie.get(b"key") == b"v1"
    trie.put(b"key", b"v2")
    assert trie.get(b"key") == b"v2"
    assert trie.get(b"nokey") is None


def test_empty_value_deletes():
    trie = MerklePatriciaTrie()
    trie.put(b"key", b"value")
    trie.put(b"key", b"")
    assert trie.get(b"key") is None
    assert trie.root_hash() == EMPTY_ROOT


def test_delete_restores_previous_root():
    trie = MerklePatriciaTrie()
    trie.put(b"alpha", b"1")
    root_one = trie.root_hash()
    trie.put(b"beta", b"2")
    trie.delete(b"beta")
    assert trie.root_hash() == root_one
    trie.delete(b"alpha")
    assert trie.root_hash() == EMPTY_ROOT


def test_delete_missing_key_is_noop():
    trie = MerklePatriciaTrie()
    trie.put(b"alpha", b"1")
    root = trie.root_hash()
    trie.delete(b"missing")
    assert trie.root_hash() == root


def test_items_sorted():
    trie = MerklePatriciaTrie()
    data = {bytes([i, j]): bytes([i + j + 1]) for i in range(4) for j in range(4)}
    for key, value in data.items():
        trie.put(key, value)
    listed = list(trie.items())
    assert listed == sorted(data.items())


def test_branch_value_slot():
    # A key that is a strict prefix of another exercises branch values.
    trie = MerklePatriciaTrie()
    trie.put(b"ab", b"short")
    trie.put(b"abcd", b"long")
    assert trie.get(b"ab") == b"short"
    assert trie.get(b"abcd") == b"long"
    trie.delete(b"ab")
    assert trie.get(b"ab") is None
    assert trie.get(b"abcd") == b"long"


def test_membership_proof():
    trie = MerklePatriciaTrie()
    for i in range(50):
        trie.put(keccak256(bytes([i])), rlp.encode_uint(i + 1))
    root = trie.root_hash()
    key = keccak256(bytes([7]))
    proof = trie.prove(key)
    assert verify_proof(root, key, proof) == rlp.encode_uint(8)


def test_non_membership_proof():
    trie = MerklePatriciaTrie()
    for i in range(50):
        trie.put(keccak256(bytes([i])), b"v")
    root = trie.root_hash()
    absent = keccak256(b"not-present")
    proof = trie.prove(absent)
    assert verify_proof(root, absent, proof) is None


def test_proof_fails_under_wrong_root():
    trie = MerklePatriciaTrie()
    for i in range(20):
        trie.put(keccak256(bytes([i])), b"v")
    key = keccak256(bytes([3]))
    proof = trie.prove(key)
    with pytest.raises(ProofError):
        verify_proof(b"\xab" * 32, key, proof)


def test_tampered_proof_rejected():
    trie = MerklePatriciaTrie()
    for i in range(20):
        trie.put(keccak256(bytes([i])), bytes([i + 1]))
    root = trie.root_hash()
    key = keccak256(bytes([3]))
    proof = trie.prove(key)
    tampered = [proof[0][:-1] + bytes([proof[0][-1] ^ 1])] + proof[1:]
    with pytest.raises(ProofError):
        verify_proof(root, key, tampered)


def test_proof_of_empty_trie():
    assert verify_proof(EMPTY_ROOT, b"anything", []) is None


def test_fuzz_against_dict():
    import random

    rng = random.Random(1234)
    reference: dict[bytes, bytes] = {}
    trie = MerklePatriciaTrie()
    for _ in range(800):
        key = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 6)))
        if rng.random() < 0.7:
            value = bytes(rng.randrange(1, 256) for _ in range(rng.randrange(1, 40)))
            reference[key] = value
            trie.put(key, value)
        else:
            reference.pop(key, None)
            trie.delete(key)
    for key, value in reference.items():
        assert trie.get(key) == value
    root = trie.root_hash()
    sample = list(reference)[:25]
    for key in sample:
        assert verify_proof(root, key, trie.prove(key)) == reference[key]


# -- nibble helpers -----------------------------------------------------------


def test_nibble_roundtrip():
    data = bytes(range(16))
    assert nibbles_to_bytes(bytes_to_nibbles(data)) == data


def test_nibbles_odd_length_rejected():
    with pytest.raises(ValueError):
        nibbles_to_bytes((1, 2, 3))


@pytest.mark.parametrize("is_leaf", [True, False])
@pytest.mark.parametrize("path", [(), (1,), (1, 2), (15, 0, 3)])
def test_hp_roundtrip(path, is_leaf):
    decoded_path, decoded_leaf = hp_decode(hp_encode(path, is_leaf))
    assert decoded_path == path
    assert decoded_leaf == is_leaf


def test_common_prefix_length():
    assert common_prefix_length((1, 2, 3), (1, 2, 9)) == 2
    assert common_prefix_length((), (1,)) == 0
    assert common_prefix_length((5,), (5,)) == 1
