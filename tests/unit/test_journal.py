"""JournaledState: overlay reads, snapshot/revert, access sets."""

import pytest

from repro.state.account import to_address
from repro.state.backend import DictBackend
from repro.state.journal import JournaledState

A = to_address(1)
B = to_address(2)


@pytest.fixture
def journal():
    backend = DictBackend()
    backend.ensure(A).balance = 1000
    backend.ensure(A).nonce = 3
    backend.ensure(A).storage[7] = 70
    backend.ensure(B).code = b"\x60\x01"
    return JournaledState(backend)


def test_reads_fall_through_to_backend(journal):
    assert journal.get_balance(A) == 1000
    assert journal.get_nonce(A) == 3
    assert journal.get_storage(A, 7) == 70
    assert journal.get_code(B) == b"\x60\x01"
    assert journal.get_code_size(B) == 2


def test_writes_shadow_backend(journal):
    journal.set_balance(A, 500)
    journal.set_storage(A, 7, 71)
    assert journal.get_balance(A) == 500
    assert journal.get_storage(A, 7) == 71


def test_add_sub_balance(journal):
    journal.add_balance(A, 10)
    assert journal.get_balance(A) == 1010
    journal.sub_balance(A, 1010)
    assert journal.get_balance(A) == 0
    with pytest.raises(ValueError):
        journal.sub_balance(A, 1)


def test_snapshot_revert_balances(journal):
    snap = journal.snapshot()
    journal.set_balance(A, 0)
    journal.set_nonce(A, 99)
    journal.revert(snap)
    assert journal.get_balance(A) == 1000
    assert journal.get_nonce(A) == 3


def test_nested_snapshots(journal):
    outer = journal.snapshot()
    journal.set_storage(A, 1, 11)
    inner = journal.snapshot()
    journal.set_storage(A, 1, 22)
    journal.revert(inner)
    assert journal.get_storage(A, 1) == 11
    journal.revert(outer)
    assert journal.get_storage(A, 1) == 0


def test_revert_restores_deleted_flag(journal):
    snap = journal.snapshot()
    journal.delete_account(A)
    assert not journal.account_exists(A)
    journal.revert(snap)
    assert journal.account_exists(A)
    assert journal.get_balance(A) == 1000


def test_original_storage_tracks_pre_tx_value(journal):
    journal.set_storage(A, 7, 71)
    journal.set_storage(A, 7, 72)
    assert journal.get_original_storage(A, 7) == 70
    assert journal.get_storage(A, 7) == 72


def test_refund_journaled(journal):
    snap = journal.snapshot()
    journal.add_refund(4800)
    assert journal.refund == 4800
    journal.sub_refund(800)
    assert journal.refund == 4000
    journal.revert(snap)
    assert journal.refund == 0


def test_warm_sets_journaled(journal):
    snap = journal.snapshot()
    assert journal.warm_address(A) is False  # was cold
    assert journal.warm_address(A) is True
    assert journal.warm_slot(A, 7) is False
    assert journal.warm_slot(A, 7) is True
    journal.revert(snap)
    assert journal.warm_address(A) is False
    assert journal.warm_slot(A, 7) is False


def test_begin_transaction_resets_scratch_keeps_writes(journal):
    journal.set_storage(A, 7, 71)
    journal.warm_address(A)
    journal.add_refund(100)
    journal.begin_transaction()
    assert journal.get_storage(A, 7) == 71  # bundle-visible write persists
    assert journal.refund == 0
    assert not journal.is_warm_address(A)
    assert journal.get_original_storage(A, 7) == 70  # re-read from backend


def test_created_account_storage_starts_empty(journal):
    journal.set_code(B, b"\x60\x02")
    assert journal.get_storage(B, 0) == 0


def test_an_undo_entry_of_an_unknown_kind_stops_the_revert(journal):
    """Every mutation pushes its own undo entry; one the revert loop
    does not know would be state it silently failed to restore."""
    snapshot = journal.snapshot()
    journal._journal.append(("bogus", to_address(1), None))
    with pytest.raises(AssertionError, match="unknown journal entry bogus"):
        journal.revert(snapshot)


def test_code_hash_semantics(journal):
    from repro.crypto.keccak import keccak256
    from repro.state.account import EMPTY_CODE_HASH

    assert journal.get_code_hash(B) == keccak256(b"\x60\x01")
    assert journal.get_code_hash(A) == EMPTY_CODE_HASH  # exists, no code
    missing = to_address(0xDEAD)
    assert journal.get_code_hash(missing) == b"\x00" * 32


def test_write_set_contents(journal):
    journal.set_balance(B, 5)
    journal.set_storage(A, 9, 90)
    journal.delete_account(B)
    ws = journal.write_set()
    assert ws.balances[B] == 5
    assert ws.storage[(A, 9)] == 90
    assert B in ws.deleted


def test_meta_reflects_overlay(journal):
    journal.set_balance(A, 777)
    meta = journal.meta(A)
    assert meta.balance == 777 and meta.nonce == 3
