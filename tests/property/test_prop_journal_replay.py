"""Property: journal replay is idempotent over any prefix.

Recovery may double-apply records after an ill-timed crash (e.g. the
checkpoint that superseded a journal prefix raced the crash), so the
replay semantics must make re-application harmless: for any record
sequence and any prefix of it, replaying ``prefix + sequence`` equals
replaying ``sequence`` alone, and replaying anything twice equals once.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.recovery import journal
from repro.recovery.state import SessionRecord, TrustedState

pytestmark = pytest.mark.recovery

keys = st.binary(min_size=1, max_size=8)
payloads = st.binary(min_size=0, max_size=16)

lease_records = st.builds(
    lambda until: (journal.LEASE, journal.lease_payload(until)),
    st.integers(min_value=0, max_value=2**32),
)

access_records = st.builds(
    lambda stash, positions, versions, nonce: (
        journal.ACCESS,
        journal.access_payload(stash, positions, versions, nonce),
    ),
    st.dictionaries(keys, st.one_of(st.none(), payloads), max_size=4),
    st.dictionaries(keys, st.one_of(st.none(), st.integers(0, 63)), max_size=4),
    st.dictionaries(st.integers(0, 30), st.integers(0, 1000), max_size=4),
    st.integers(min_value=0, max_value=2**32),
)

# A small id space, so ends land on sessions the sequence recorded —
# before them, after them, twice, and on ones it never did.
session_ids = st.integers(0, 5).map(lambda n: bytes([n]) * 8)

session_records = st.builds(
    lambda sid, public, index, at: (
        journal.SESSION,
        journal.session_payload(
            SessionRecord(
                session_id=sid,
                user_public=public,
                device_index=index,
                established_at_us=float(at),
            )
        ),
    ),
    session_ids,
    st.binary(min_size=1, max_size=65),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=10**9),
)

session_end_records = st.builds(
    lambda sid: (journal.SESSION_END, journal.session_end_payload(sid)),
    session_ids,
)

root_records = st.builds(
    lambda root: (journal.ROOT, journal.root_payload(root)),
    st.binary(min_size=32, max_size=32),
)

records = st.one_of(
    lease_records, access_records, session_records, session_end_records,
    root_records,
)
sequences = st.lists(records, max_size=12)


def _digest(state: TrustedState) -> bytes:
    return state.encode()


@settings(max_examples=200, deadline=None)
@given(sequences, st.data())
def test_replaying_any_prefix_twice_equals_once(sequence, data):
    """replay(prefix + sequence) == replay(sequence) for any prefix of it."""
    cut = data.draw(st.integers(min_value=0, max_value=len(sequence)))
    prefix = sequence[:cut]
    once = journal.replay(TrustedState(), list(sequence))
    doubled = journal.replay(TrustedState(), prefix + list(sequence))
    assert _digest(doubled) == _digest(once)


@settings(max_examples=100, deadline=None)
@given(sequences)
def test_full_double_replay_equals_single(sequence):
    once = journal.replay(TrustedState(), list(sequence))
    twice = journal.replay(TrustedState(), list(sequence) + list(sequence))
    assert _digest(twice) == _digest(once)


@settings(max_examples=100, deadline=None)
@given(sequences)
def test_records_survive_the_wire_codec(sequence):
    """Seal-shaped round trip: encode/decode every record, same replay."""
    direct = journal.replay(TrustedState(), list(sequence))
    decoded = [
        journal.decode_record(journal.encode_record(kind, payload))
        for kind, payload in sequence
    ]
    assert _digest(journal.replay(TrustedState(), decoded)) == _digest(direct)
