"""Property: the oblivious backend is observationally equivalent to a
plain backend for any synced world state and any read sequence."""

from hypothesis import given, settings, strategies as st

from repro.oram.adapter import ObliviousStateBackend
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.state.account import Account, to_address
from repro.state.backend import DictBackend

addresses = st.integers(min_value=1, max_value=6).map(to_address)

accounts = st.builds(
    Account,
    balance=st.integers(min_value=0, max_value=2**100),
    nonce=st.integers(min_value=0, max_value=2**32),
    code=st.binary(max_size=2500),
    storage=st.dictionaries(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=2**128),
        max_size=8,
    ),
)

worlds = st.dictionaries(addresses, accounts, min_size=1, max_size=4)

reads = st.lists(
    st.tuples(
        addresses,
        st.sampled_from(["meta", "storage", "code", "page"]),
        st.integers(min_value=0, max_value=210),
    ),
    max_size=15,
)


@given(worlds, reads)
@settings(max_examples=30, deadline=None)
def test_oblivious_backend_equivalent_to_plain(world, read_ops):
    plain = DictBackend({a: acct.copy() for a, acct in world.items()})
    server = OramServer(height=7)
    client = PathOramClient(server, key=b"eq" + b"\x00" * 30)
    oblivious = ObliviousStateBackend(client)
    oblivious.sync_world({a: acct.copy() for a, acct in world.items()})

    for address, kind, key in read_ops:
        if kind == "meta":
            ours = oblivious.get_meta(address)
            theirs = plain.get_meta(address)
            assert (ours.balance, ours.nonce, ours.code_size) == (
                theirs.balance, theirs.nonce, theirs.code_size,
            )
            assert ours.code_hash == theirs.code_hash
        elif kind == "storage":
            assert oblivious.get_storage(address, key) == plain.get_storage(
                address, key
            )
        elif kind == "code":
            assert oblivious.get_code(address) == plain.get_code(address)
        else:
            page_index = key % 4
            assert oblivious.get_code_page(
                address, page_index
            ) == plain.get_code_page(address, page_index)
