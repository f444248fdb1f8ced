"""Journal records, trusted-state encoding, and the counter-nonce sealer."""

import pytest

from repro.crypto.suite import AuthenticationError
from repro.crypto.suite import CounterNonceSealer
from repro.recovery import journal
from repro.recovery.state import (
    RecoveryIntegrityError,
    SessionRecord,
    TrustedState,
)

pytestmark = pytest.mark.recovery


def _session_record(n=1):
    return SessionRecord(
        session_id=bytes([n]) * 16,
        user_public=bytes([n]) * 65,
        device_index=n % 2,
        established_at_us=float(n) * 100.0,
    )


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------


def test_record_roundtrip_all_kinds():
    payloads = {
        journal.LEASE: journal.lease_payload(640),
        journal.ACCESS: journal.access_payload(
            {b"k1": b"v1", b"k2": None}, {b"k1": 3, b"k2": None}, {0: 2, 5: 1}, 99
        ),
        journal.SESSION: journal.session_payload(_session_record()),
        journal.SESSION_END: journal.session_end_payload(b"\x01" * 16),
        journal.ROOT: journal.root_payload(b"\xab" * 32),
    }
    assert set(payloads) == set(journal.KINDS)
    for kind, payload in payloads.items():
        got_kind, got_payload = journal.decode_record(
            journal.encode_record(kind, payload)
        )
        assert got_kind == kind
        assert got_payload == payload


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        journal.encode_record("bogus", {})  # the trusted side's own bug
    with pytest.raises(RecoveryIntegrityError):
        journal.decode_record(b'{"kind":"bogus","payload":{}}')
    with pytest.raises(RecoveryIntegrityError):
        journal.apply_record(TrustedState(), "bogus", {})


@pytest.mark.parametrize("blob", [
    b"", b"\xff", b"[]", b"{}", b"[" * 100_000,
    b'{"kind":"lease","payload":[]}',
    b'{"kind": "lease", "payload": {"until": 1}}',          # not canonical
    b'{"extra":1,"kind":"lease","payload":{"until":1}}',
], ids=["empty", "not-utf8", "a-list", "no-kind", "nested-100k",
        "payload-not-an-object", "whitespace", "extra-key"])
def test_a_record_that_is_not_a_canonical_encoding_is_refused_typed(blob):
    with pytest.raises(RecoveryIntegrityError):
        journal.decode_record(blob)


@pytest.mark.parametrize("kind, payload", [
    (journal.LEASE, {}),
    (journal.LEASE, {"until": "soon"}),
    (journal.ACCESS, {"stash": {}}),
    (journal.ACCESS, {"stash": {"zz": None}, "positions": {},
                      "versions": {}, "nonce": 1}),
    (journal.SESSION, {"session_id": "00"}),
    (journal.SESSION_END, {}),
    (journal.SESSION_END, {"session_id": 7}),
    (journal.ROOT, {"root": None}),
])
def test_a_short_or_mistyped_payload_is_refused_typed(kind, payload):
    with pytest.raises(RecoveryIntegrityError):
        journal.apply_record(TrustedState(), kind, payload)


def test_encoding_is_deterministic():
    payload = journal.access_payload({b"a": b"1"}, {b"a": 7}, {3: 4}, 12)
    assert journal.encode_record(journal.ACCESS, payload) == journal.encode_record(
        journal.ACCESS, journal.access_payload({b"a": b"1"}, {b"a": 7}, {3: 4}, 12)
    )


# ----------------------------------------------------------------------
# Replay semantics
# ----------------------------------------------------------------------


def test_access_record_applies_absolute_deltas():
    state = TrustedState(stash={b"gone": b"x"}, positions={b"gone": 1})
    journal.apply_record(
        state,
        journal.ACCESS,
        journal.access_payload(
            {b"new": b"payload", b"gone": None},
            {b"new": 5, b"gone": None},
            {0: 3, 2: 1},
            17,
        ),
    )
    assert state.stash == {b"new": b"payload"}
    assert state.positions == {b"new": 5}
    assert state.node_versions == {0: 3, 2: 1}
    assert state.nonce_counter == 17


def test_lease_is_monotonic_watermark():
    state = TrustedState()
    journal.apply_record(state, journal.LEASE, journal.lease_payload(100))
    journal.apply_record(state, journal.LEASE, journal.lease_payload(50))
    assert state.leased_until == 100


def test_replay_clamps_nonce_counter_to_lease():
    """A crash may burn leased nonces no access record confirmed; the
    successor must never reuse them."""
    state = journal.replay(
        TrustedState(),
        [
            (journal.LEASE, journal.lease_payload(300)),
            (
                journal.ACCESS,
                journal.access_payload({b"k": b"v"}, {b"k": 1}, {0: 1}, 40),
            ),
        ],
    )
    assert state.nonce_counter == 300


def test_session_and_root_records():
    state = TrustedState()
    record = _session_record(3)
    journal.apply_record(state, journal.SESSION, journal.session_payload(record))
    journal.apply_record(state, journal.ROOT, journal.root_payload(b"\x11" * 32))
    assert state.sessions[record.session_id.hex()] == record
    assert state.sync_root == b"\x11" * 32


def test_session_end_removes_the_record_and_tolerates_its_absence():
    record = _session_record(3)
    end = journal.session_end_payload(record.session_id)
    state = TrustedState()
    journal.apply_record(state, journal.SESSION_END, end)  # never recorded
    journal.apply_record(state, journal.SESSION, journal.session_payload(record))
    journal.apply_record(state, journal.SESSION_END, end)
    journal.apply_record(state, journal.SESSION_END, end)
    assert state.sessions == {}
    assert state.encode() == TrustedState().encode()


def test_double_apply_is_idempotent():
    records = [
        (journal.LEASE, journal.lease_payload(256)),
        (
            journal.ACCESS,
            journal.access_payload(
                {b"a": b"1", b"b": None}, {b"a": 2, b"b": None}, {1: 1}, 30
            ),
        ),
        (journal.SESSION, journal.session_payload(_session_record())),
        (journal.SESSION, journal.session_payload(_session_record(2))),
        (journal.SESSION_END, journal.session_end_payload(bytes([2]) * 16)),
        (journal.ROOT, journal.root_payload(b"\x22" * 32)),
    ]
    once = journal.replay(TrustedState(), records)
    twice = journal.replay(TrustedState(), records + records)
    assert once.encode() == twice.encode()


# ----------------------------------------------------------------------
# TrustedState encoding
# ----------------------------------------------------------------------


def test_trusted_state_roundtrip():
    state = TrustedState(
        stash={b"key-a": b"payload-a", b"key-b": b""},
        positions={b"key-a": 9, b"key-b": 0},
        node_versions={0: 12, 7: 3},
        nonce_counter=451,
        leased_until=512,
        oram_key=b"\x42" * 32,
        block_size=256,
        sessions={_session_record().session_id.hex(): _session_record()},
        sync_root=b"\x33" * 32,
    )
    decoded = TrustedState.decode(state.encode())
    assert decoded == state
    assert decoded.encode() == state.encode()


def test_trusted_state_none_root():
    state = TrustedState()
    assert TrustedState.decode(state.encode()).sync_root is None


@pytest.mark.parametrize("blob", [
    b"", b"\xff", b"[]", b"{}", b"[" * 100_000,
    TrustedState().encode().replace(b'"block_size":1024', b'"block_size":1e400'),
    TrustedState().encode().replace(b'"stash":{}', b'"stash":[]'),
    TrustedState().encode().replace(b",", b", ", 1),           # not canonical
], ids=["empty", "not-utf8", "a-list", "no-fields", "nested-100k",
        "overflowing-number", "stash-not-an-object", "whitespace"])
def test_a_checkpoint_that_is_not_a_canonical_encoding_is_refused_typed(blob):
    with pytest.raises(RecoveryIntegrityError):
        TrustedState.decode(blob)


# ----------------------------------------------------------------------
# CounterNonceSealer
# ----------------------------------------------------------------------


def test_sealer_roundtrip_and_binding():
    sealer = CounterNonceSealer(b"\x07" * 32)
    sealed = sealer.seal(41, b"plaintext", aad=b"context")
    assert sealer.open(41, sealed, aad=b"context") == b"plaintext"
    with pytest.raises(AuthenticationError):
        sealer.open(42, sealed, aad=b"context")  # wrong sequence
    with pytest.raises(AuthenticationError):
        sealer.open(41, sealed, aad=b"other")  # wrong AAD
    other = CounterNonceSealer(b"\x08" * 32)
    with pytest.raises(AuthenticationError):
        other.open(41, sealed, aad=b"context")  # wrong key
