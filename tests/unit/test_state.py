"""Accounts, backends, and the authenticated WorldState."""

import pytest

from repro.crypto.keccak import keccak256
from repro.state.account import Account, EMPTY_CODE_HASH, to_address
from repro.state.backend import CODE_PAGE_SIZE, DictBackend
from repro.state.world import WorldState
from repro.trie.mpt import EMPTY_ROOT, ProofError


def test_to_address_normalization():
    assert to_address(0) == b"\x00" * 20
    assert to_address(1)[-1] == 1
    assert len(to_address(2**200)) == 20  # truncates mod 2^160
    assert to_address(b"\x01\x02") == b"\x00" * 18 + b"\x01\x02"
    assert to_address(b"\xff" * 25) == b"\xff" * 20


def test_account_code_hash():
    assert Account().code_hash == EMPTY_CODE_HASH
    account = Account(code=b"\x60\x00")
    assert account.code_hash == keccak256(b"\x60\x00")


def test_account_emptiness():
    assert Account().is_empty
    assert not Account(balance=1).is_empty
    assert not Account(nonce=1).is_empty
    assert not Account(code=b"\x00").is_empty


def test_account_storage_root_empty():
    assert Account().storage_root() == EMPTY_ROOT
    # Zero-valued slots do not contribute.
    assert Account(storage={1: 0}).storage_root() == EMPTY_ROOT


def test_account_copy_is_deep():
    account = Account(balance=5, storage={1: 2})
    clone = account.copy()
    clone.storage[1] = 99
    assert account.storage[1] == 2


def test_dict_backend_meta():
    backend = DictBackend()
    assert not backend.get_meta(to_address(1)).exists
    backend.ensure(to_address(1)).balance = 7
    meta = backend.get_meta(to_address(1))
    assert meta.exists and meta.balance == 7


def test_dict_backend_code_pages():
    backend = DictBackend()
    address = to_address(5)
    code = bytes(range(256)) * 5  # 1280 bytes: 2 pages
    backend.ensure(address).code = code
    page0 = backend.get_code_page(address, 0)
    page1 = backend.get_code_page(address, 1)
    assert len(page0) == len(page1) == CODE_PAGE_SIZE
    assert page0 == code[:1024]
    assert page1[: 1280 - 1024] == code[1024:]
    assert page1[1280 - 1024:] == b"\x00" * (2048 - 1280)


def test_apply_writes_and_delete():
    backend = DictBackend()
    address = to_address(9)
    backend.apply_writes({address: 100}, {address: 2}, {(address, 5): 7}, {})
    assert backend.get_meta(address).balance == 100
    assert backend.get_storage(address, 5) == 7
    backend.apply_writes({}, {}, {(address, 5): 0}, {})
    assert backend.get_storage(address, 5) == 0
    backend.apply_writes({}, {}, {}, {}, deleted={address})
    assert not backend.get_meta(address).exists


def test_world_state_commit_deterministic():
    ws1 = WorldState()
    ws2 = WorldState()
    for ws in (ws1, ws2):
        ws.ensure(to_address(1)).balance = 10
        ws.ensure(to_address(2)).code = b"\x60\x01"
    assert ws1.commit() == ws2.commit()


def test_world_state_root_changes_with_state():
    ws = WorldState()
    ws.ensure(to_address(1)).balance = 10
    root_a = ws.commit()
    ws.ensure(to_address(1)).balance = 11
    assert ws.commit() != root_a


def test_empty_accounts_excluded_from_root():
    ws = WorldState()
    ws.ensure(to_address(1))  # empty
    assert ws.commit() == EMPTY_ROOT


def test_account_proof_roundtrip():
    ws = WorldState()
    address = to_address(0xAB)
    ws.ensure(address).balance = 1234
    ws.ensure(address).nonce = 5
    ws.ensure(to_address(0xCD)).balance = 9
    root = ws.commit()
    proof = ws.prove_account(address)
    proven = WorldState.verify_account_proof(root, address, proof)
    assert proven is not None
    assert proven.meta.balance == 1234 and proven.meta.nonce == 5
    assert proven.storage_root == ws.storage_root_of(address)


def test_account_non_membership_proof():
    ws = WorldState()
    ws.ensure(to_address(1)).balance = 5
    root = ws.commit()
    absent = to_address(0xFEED)
    proof = ws.prove_account(absent)
    assert WorldState.verify_account_proof(root, absent, proof) is None


def test_account_proof_wrong_root_rejected():
    ws = WorldState()
    address = to_address(1)
    ws.ensure(address).balance = 5
    ws.commit()
    proof = ws.prove_account(address)
    with pytest.raises(ProofError):
        WorldState.verify_account_proof(b"\x00" * 32, address, proof)


def test_storage_proof_roundtrip():
    ws = WorldState()
    address = to_address(0xAB)
    ws.ensure(address).storage.update({3: 42, 99: 7})
    storage_root = ws.storage_root_of(address)
    proof = ws.prove_storage(address, 3)
    assert WorldState.verify_storage_proof(storage_root, 3, proof) == 42
    absent_proof = ws.prove_storage(address, 1000)
    assert WorldState.verify_storage_proof(storage_root, 1000, absent_proof) == 0


def test_world_state_copy_isolated():
    ws = WorldState()
    ws.ensure(to_address(1)).balance = 5
    clone = ws.copy()
    clone.ensure(to_address(1)).balance = 99
    assert ws.accounts[to_address(1)].balance == 5


def test_proofs_follow_a_world_state_mutated_after_proving():
    """The account trie and the storage tries a state has proven from
    are dropped by the next mutation: proofs verify against the *new*
    root, and a copy taken in between shares no trie."""
    ws = WorldState()
    address = to_address(0xAB)
    ws.ensure(address).balance = 1
    ws.ensure(address).storage.update({3: 42, 99: 7})
    old_root = ws.commit()
    ws.prove_account(address)
    ws.prove_storage(address, 3)  # every cache is warm now
    clone = ws.copy()

    ws.apply_writes({}, {}, {(address, 3): 43, (address, 5): 1}, {})
    ws.ensure(address).storage[99] = 8
    new_root = ws.commit()
    assert new_root != old_root
    proven = WorldState.verify_account_proof(
        new_root, address, ws.prove_account(address)
    )
    assert proven.storage_root == ws.storage_root_of(address)
    for key, value in {3: 43, 5: 1, 99: 8, 1000: 0}.items():
        proof = ws.prove_storage(address, key)
        assert WorldState.verify_storage_proof(proven.storage_root, key, proof) == value

    assert clone.commit() == old_root
    proven = WorldState.verify_account_proof(
        old_root, address, clone.prove_account(address)
    )
    for key, value in {3: 42, 5: 0, 99: 7}.items():
        proof = clone.prove_storage(address, key)
        assert WorldState.verify_storage_proof(proven.storage_root, key, proof) == value
