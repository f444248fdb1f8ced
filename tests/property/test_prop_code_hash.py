"""The code hash an :class:`Account` keeps is always the hash of its code.

``Account.code_hash`` is account state, hashed once and kept beside the
code it was derived from.  Over any sequence of constructions, code
reassignments, write-set commits, copies and deep copies, it must read
exactly what a fresh sponge computes over the current code.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.crypto.keccak import Keccak256
from repro.state.account import EMPTY_CODE_HASH, Account
from repro.state.backend import DictBackend

ADDRESS = b"\x0c" * 20

codes = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=40),
    # past the 1 KB small-memo limit and the 136-byte sponge rate
    st.binary(min_size=1100, max_size=1300),
)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("new"), codes),
        st.tuples(st.just("assign"), codes),
        st.tuples(st.just("assign_bytearray"), codes),
        st.tuples(st.just("apply_writes"), codes),
        st.tuples(st.just("copy"), st.just(b"")),
        st.tuples(st.just("deepcopy"), st.just(b"")),
    ),
    max_size=12,
)


def _expected(code: bytes) -> bytes:
    return Keccak256(bytes(code)).digest() if code else EMPTY_CODE_HASH


@settings(max_examples=60, deadline=None)
@given(codes, steps)
def test_the_kept_code_hash_always_matches_the_code(initial, script):
    backend = DictBackend({ADDRESS: Account(code=initial)})
    for action, code in script:
        account = backend.accounts[ADDRESS]
        if action == "new":
            backend.accounts[ADDRESS] = Account(balance=1, code=code)
        elif action == "assign":
            account.code = code
        elif action == "assign_bytearray":
            # a mutable buffer edited after hashing must not go stale
            buffer = bytearray(code)
            account.code = buffer
            account.code_hash
            buffer.extend(b"\x5b")
        elif action == "apply_writes":
            backend.apply_writes({}, {}, {}, {ADDRESS: code})
        elif action == "copy":
            backend.accounts[ADDRESS] = account.copy()
        elif action == "deepcopy":
            backend.accounts[ADDRESS] = copy.deepcopy(account)
        current = backend.accounts[ADDRESS]
        assert current.code_hash == _expected(current.code)
        assert backend.get_meta(ADDRESS).code_hash == _expected(current.code)
