"""Hostile bytes: every listed decoder is total (ROADMAP item 1).

A session holder controls the bytes inside the secure channel (a
bundle, and on the user side a trace report) and holds its resumption
ticket; whatever they send, the decoder returns a value that re-encodes
to the input or raises its typed error — never ``ValueError``,
``TypeError``, ``IndexError``, ``struct.error`` or
``UnicodeDecodeError``.  The Node controls every byte of a Merkle proof
and everything else that reaches ``rlp.decode``; the SP's disk holds the
sealed journal records and checkpoints recovery reads back; and key
material arrives from peers as SEC1 points and 64-byte signatures.  A
new decoder joins by adding a row to ``DECODERS``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rlp import codec as rlp
from repro.crypto import ecc
from repro.crypto.keccak import keccak256
from repro.hypervisor.bundle_codec import (
    decode_bundle,
    decode_trace_report,
    encode_bundle,
    encode_trace_report,
)
from repro.hypervisor.resumption import TicketIntegrityError, TicketState
from repro.recovery import journal
from repro.recovery.state import RecoveryIntegrityError, TrustedState
from repro.trie.mpt import MerklePatriciaTrie, ProofError, verify_proof
from tests.hostile import assert_total, mutated
from tests.property.test_prop_codecs import bundles, reports
from tests.property.test_prop_journal_replay import records, sequences
from tests.property.test_prop_rlp_trie import rlp_items

ticket_states = st.builds(
    TicketState,
    session_id=st.binary(max_size=16),
    user_public=st.binary(max_size=33),
    hv_signing_secret=st.binary(max_size=32),
    resumption_secret=st.binary(max_size=32),
    send_watermark=st.integers(min_value=0, max_value=2**40),
    recv_watermark=st.integers(min_value=0, max_value=2**40),
)

points = st.integers(1, ecc.N - 1).map(
    lambda secret: ecc.PrivateKey(secret).public_key().point
)
signatures = st.builds(
    ecc.Signature, r=st.integers(0, 2**256 - 1), s=st.integers(0, 2**256 - 1)
)
trusted_states = sequences.map(
    lambda sequence: journal.replay(TrustedState(), sequence)
)

# name -> (valid values, encode, decode, typed errors)
DECODERS = {
    "bundle": (bundles, encode_bundle, decode_bundle, rlp.DecodingError),
    "rlp": (rlp_items, rlp.encode, rlp.decode, rlp.DecodingError),
    "trace_report": (
        reports, encode_trace_report, decode_trace_report, rlp.DecodingError
    ),
    "ticket_state": (
        ticket_states, TicketState.encode, TicketState.decode,
        TicketIntegrityError,
    ),
    "journal_record": (
        records, lambda record: journal.encode_record(*record),
        journal.decode_record, RecoveryIntegrityError,
    ),
    "ecc_point": (
        points, ecc.encode_point, ecc.decode_point, ecc.EccDecodingError
    ),
    "ecc_signature": (
        signatures, ecc.Signature.to_bytes, ecc.Signature.from_bytes,
        ecc.EccDecodingError,
    ),
}


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_decoder_is_total_on_mutated_encodings(name, data):
    valid, encode, decode, typed_errors = DECODERS[name]
    hostile = data.draw(mutated(valid.map(encode)))
    assert_total(decode, encode, hostile, typed_errors)


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(hostile=st.binary(max_size=96))
@settings(max_examples=200, deadline=None)
def test_decoder_is_total_on_arbitrary_bytes(name, hostile):
    _, encode, decode, typed_errors = DECODERS[name]
    assert_total(decode, encode, hostile, typed_errors)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_checkpoint_decoder_is_total(data):
    """``TrustedState.decode`` sits at the journal records' boundary (the
    SP's disk, behind the same kind of seal) and answers the same way."""
    hostile = data.draw(st.one_of(
        mutated(trusted_states.map(TrustedState.encode)),
        st.binary(max_size=96),
    ))
    assert_total(
        TrustedState.decode, TrustedState.encode, hostile,
        RecoveryIntegrityError,
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@given(record=records, data=st.data())
@settings(max_examples=300, deadline=None)
def test_apply_record_is_total_on_a_payload_of_the_wrong_shape(record, data):
    """A record can be canonical JSON and still not be a record: fields
    missing or of any JSON type.  Replay applies it or refuses the boot
    typed — never ``KeyError``/``TypeError``/``AttributeError``."""
    kind, payload = record
    hostile = dict(payload)
    for key in data.draw(st.lists(st.sampled_from(sorted(payload)), max_size=2)):
        if data.draw(st.booleans(), label=f"drop {key}"):
            hostile.pop(key, None)
        else:
            hostile[key] = data.draw(json_values, label=key)
    try:
        journal.apply_record(TrustedState(), kind, hostile)
    except RecoveryIntegrityError:
        pass


@given(
    contents=st.dictionaries(
        st.binary(min_size=1, max_size=3), st.binary(min_size=1, max_size=40),
        min_size=1, max_size=24,
    ),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_verify_proof_is_total_on_a_mutated_node(contents, data):
    """``verify_proof`` promises ``ProofError`` for anything that does
    not authenticate.  One node of a valid proof is mutated and the
    proof re-rooted over it (every ancestor refers to its child by the
    new hash, the root is the new first node's hash), so the mutant is
    *reached*: the verdict is a value or ``ProofError``, never the
    ``DecodingError`` / ``IndexError`` / ``TypeError`` of a node that
    hashes right and parses wrong."""
    trie = MerklePatriciaTrie()
    for key, value in contents.items():
        trie.put(key, value)
    key = data.draw(
        st.one_of(st.sampled_from(sorted(contents)), st.binary(min_size=1, max_size=3)),
        label="key",
    )
    proof = trie.prove(key)
    index = data.draw(st.integers(0, len(proof) - 1), label="node")
    mutant = data.draw(mutated(st.just(proof[index])), label="mutant")
    for level in range(index, -1, -1):
        proof[level], replaced = mutant, proof[level]
        if level:
            mutant = proof[level - 1].replace(keccak256(replaced), keccak256(mutant))
    try:
        value = verify_proof(keccak256(proof[0]), key, proof)
    except ProofError:
        return
    assert value is None or isinstance(value, bytes)
