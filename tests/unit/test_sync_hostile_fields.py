"""Hostile *fields* of an ``AccountUpdate``: what a lying Node hands the
synchronizer (ROADMAP aim 3).

An ``AccountUpdate`` has no wire codec — it reaches ``apply_block`` as
an object whose every field the SP's Node chose.  The promise is
``apply_block``'s: a counted :class:`SyncError` with nothing of the
offending update written, or the update is what the chain says and is
applied.  Never a builtin (``OverflowError`` out of ``key.to_bytes``,
``TypeError`` out of ``keccak256``, ``KeyError`` for a missing proof).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.hypervisor.sync import AccountUpdate, BlockSynchronizer, SyncError
from repro.oram.adapter import ObliviousStateBackend
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.state.account import to_address
from repro.state.world import WorldState

CONTRACT, PLAIN, ABSENT = to_address(0xAB), to_address(0xCD), to_address(0xFEED)
CODE = b"\x60\x01" * 600  # two code pages
WORLD = WorldState()
WORLD.ensure(PLAIN).balance = 9
WORLD.ensure(CONTRACT).balance = 1000
WORLD.accounts[CONTRACT].code = CODE
WORLD.accounts[CONTRACT].storage.update({5: 50, 6: 60, 70: 7})
ROOT = WORLD.commit()


def _honest(address=CONTRACT, keys=(5, 70), code=CODE) -> AccountUpdate:
    return AccountUpdate(
        address=address,
        account_proof=WORLD.prove_account(address),
        slots={key: WORLD.get_storage(address, key) for key in keys},
        storage_proofs={key: WORLD.prove_storage(address, key) for key in keys},
        code=code,
    )


def _fresh():
    server = OramServer(height=6)
    backend = ObliviousStateBackend(PathOramClient(server, key=b"k" * 32))
    return BlockSynchronizer(backend), backend, server


def _content(backend, server) -> dict:
    return backend.client.logical_content(server)


def _assert_rejected(updates, written_first=()) -> None:
    """``updates`` ends in one counted ``SyncError``; the ORAM then holds
    what ``written_first`` alone would have left."""
    synchronizer, backend, server = _fresh()
    with pytest.raises(SyncError):
        synchronizer.apply_block(ROOT, list(updates))
    assert synchronizer.stats.proofs_rejected == 1
    assert synchronizer.stats.blocks_synced == 0
    twin, twin_backend, twin_server = _fresh()
    twin.apply_block(ROOT, list(written_first))
    assert _content(backend, server) == _content(twin_backend, twin_server)


def _with(update: AccountUpdate, **fields) -> AccountUpdate:
    return dataclasses.replace(update, **fields)


def _slot(update: AccountUpdate, key, value, proof=None) -> AccountUpdate:
    """``update`` claiming ``key: value`` under slot 5's (or ``proof``)."""
    proof = update.storage_proofs[5] if proof is None else proof
    return _with(
        update,
        slots={**update.slots, key: value},
        storage_proofs={**update.storage_proofs, key: proof},
    )


NAMED = {
    "negative slot key": lambda u: _slot(u, -1, 0),
    "slot key of 2^256": lambda u: _slot(u, 2**256, 0),
    "non-int slot key": lambda u: _slot(u, "5", 50),
    "bool slot key": lambda u: _slot(u, True, 0),
    "negative slot value": lambda u: _slot(u, 5, -50),
    "slot value of 2^256": lambda u: _slot(u, 5, 2**256),
    "non-int slot value": lambda u: _slot(u, 5, 50.0),
    "stale slot value": lambda u: _slot(u, 5, 49),
    "a write without its proof": lambda u: _with(u, slots={**u.slots, 6: 60}),
    "a proof for a slot not written": lambda u: _with(
        u, storage_proofs={**u.storage_proofs, 6: WORLD.prove_storage(CONTRACT, 6)}
    ),
    "another slot's proof": lambda u: _slot(u, 5, 50, u.storage_proofs[70]),
    "non-bytes storage proof node": lambda u: _slot(u, 5, 50, [*u.storage_proofs[5], 7]),
    "storage proof not a list": lambda u: _slot(u, 5, 50, b"".join(u.storage_proofs[5])),
    "non-bytes account proof node": lambda u: _with(
        u, account_proof=[*u.account_proof, None]
    ),
    "account proof not a list": lambda u: _with(u, account_proof=None),
    "another account's proof": lambda u: _with(
        u, account_proof=WORLD.prove_account(PLAIN)
    ),
    "slots not a dict": lambda u: _with(u, slots=[(5, 50)]),
    "code of another hash": lambda u: _with(u, code=CODE + b"\x00"),
    "non-bytes code": lambda u: _with(u, code=list(CODE)),
    "a new code hash with no code": lambda u: _with(u, code=None),
    "short address": lambda u: _with(u, address=CONTRACT[1:]),
    "non-bytes address": lambda u: _with(u, address=0xAB),
    "code for an account proven absent": lambda u: _with(
        _honest(ABSENT, keys=(), code=None), code=b"\x60\x01"
    ),
    "a slot of an account proven absent": lambda u: _with(
        _honest(ABSENT, keys=(), code=None), slots={5: 50},
        storage_proofs={5: u.storage_proofs[5]},
    ),
    "not an update at all": lambda u: (u.address, u.account_proof),
}


@pytest.mark.parametrize("name", NAMED)
def test_a_hostile_update_is_a_counted_sync_error_and_writes_nothing(name):
    hostile = NAMED[name](_honest())
    _assert_rejected([hostile])
    # Behind an honest update: that one is written, the hostile one is not.
    plain = _honest(PLAIN, keys=(), code=None)
    _assert_rejected([plain, hostile], written_first=[plain])


def test_the_same_address_twice_in_one_block_is_a_sync_error():
    _assert_rejected([_honest(), _honest()], written_first=[_honest()])
    _assert_rejected(
        [_honest(), _honest(keys=(6,), code=None)], written_first=[_honest()]
    )


def test_the_honest_updates_apply():
    synchronizer, backend, _ = _fresh()
    updates = [_honest(), _honest(PLAIN, (), None), _honest(ABSENT, (3,), None)]
    assert synchronizer.apply_block(ROOT, updates) == (1 + 2 + 2) + 1 + 2
    assert backend.get_meta(CONTRACT) == WORLD.get_meta(CONTRACT)
    assert backend.get_code(CONTRACT) == CODE
    assert [backend.get_storage(CONTRACT, key) for key in (5, 6, 70)] == [50, 0, 7]
    assert not backend.get_meta(ABSENT).exists


# Anything but what the field should hold, and near misses of it.
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=40), st.binary(max_size=40),
)
junk = st.one_of(
    scalars,
    st.lists(st.one_of(st.integers(), st.binary(max_size=40)), max_size=3),
    st.dictionaries(st.integers(), st.integers(), max_size=2),
)
words = st.one_of(
    st.integers(-2, 80), st.integers(2**256 - 2, 2**256 + 2), scalars
)
proofs = st.one_of(
    junk,
    st.sampled_from([
        WORLD.prove_storage(CONTRACT, 5), WORLD.prove_storage(CONTRACT, 6),
        WORLD.prove_account(CONTRACT), [],
    ]),
    st.lists(st.one_of(st.binary(max_size=80), junk), max_size=4),
)


@given(
    address=st.one_of(st.sampled_from([CONTRACT, PLAIN, ABSENT]), junk),
    account_proof=st.one_of(
        st.sampled_from([WORLD.prove_account(CONTRACT), WORLD.prove_account(ABSENT)]),
        proofs,
    ),
    slots=st.one_of(junk, st.dictionaries(words, words, max_size=3)),
    storage_proofs=st.one_of(junk, st.dictionaries(words, proofs, max_size=3)),
    code=st.one_of(st.sampled_from([None, CODE, b""]), junk),
    reuse_slot_keys=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_an_update_of_hostile_fields_is_applied_or_a_sync_error(
    address, account_proof, slots, storage_proofs, code, reuse_slot_keys
):
    if reuse_slot_keys and isinstance(slots, dict) and isinstance(storage_proofs, dict):
        # Agreeing key sets reach the per-slot checks behind the shape gate.
        storage_proofs = dict(zip(slots, [*storage_proofs.values(), [], [], []]))
    update = AccountUpdate(address, account_proof, slots, storage_proofs, code)
    synchronizer, backend, server = _fresh()
    try:
        synchronizer.apply_block(ROOT, [update])
    except SyncError:
        assert synchronizer.stats.proofs_rejected == 1
        assert _content(backend, server) == {}
        return
    # Accepted: every value written is the chain's.
    assert backend.get_meta(address).balance == WORLD.get_meta(address).balance
    assert backend.get_code(address) == WORLD.get_code(address)
    for key in slots:
        assert backend.get_storage(address, key) == WORLD.get_storage(address, key)
