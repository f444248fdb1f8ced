"""Hostile *fields*: what a lying device hands the auditor (ROADMAP 1 (a)).

A ``SignedReceipt`` and a ``MerkleProof`` have no wire codec — they
reach the auditor as objects whose every field the device chose.  So
the hostile input is a field of the wrong length, type or shape, and
the promise is the auditor's: ``ReceiptMismatchError`` (or, one level
down, ``InvalidSignature`` / ``False``), nothing else.  The reverse
direction is the device's promise: the auditor picks the indices
``Hypervisor.receipt_opening`` is asked for.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.crypto.ecc import N, InvalidSignature, PrivateKey, Signature
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.hypervisor.receipts import (
    ReceiptAuditor,
    ReceiptError,
    ReceiptIndexError,
    ReceiptMismatchError,
    ReceiptMissingError,
    SignedReceipt,
    make_receipt,
)
from repro.telemetry.unified import MerkleProof, verify_merkle_proof
from tests.oracles import outcome_on_both_verifiers
from tests.unit.test_receipt_audit import BUNDLE_ID, _trace

pytestmark = pytest.mark.byzantine

KEY = PrivateKey(0xC0FFEE)
TRACES = (_trace(5), _trace(9))
HONEST = make_receipt(BUNDLE_ID, TRACES, KEY)

# Anything but what the field should hold.
junk = st.one_of(
    st.none(), st.integers(), st.text(max_size=70), st.binary(max_size=70),
    st.lists(st.integers(), max_size=3), st.tuples(st.integers(), st.integers()),
)
hostile_signatures = st.one_of(
    junk,
    st.binary(min_size=63, max_size=65),             # raw bytes, any length
    st.builds(Signature, r=st.integers(-1, 2**300), s=st.sampled_from([0, 1, N])),
    st.builds(Signature, r=junk, s=st.integers(1, N - 1)),
)
hostile_roots = st.one_of(
    junk,
    st.text(alphabet="0123456789abcdefg", max_size=66),  # odd length, non-hex
    st.sampled_from(HONEST.commitments).map(str.upper),
)


@given(
    signature=st.one_of(st.just(HONEST.signature), hostile_signatures),
    commitments=st.one_of(
        st.just(HONEST.commitments), junk,
        st.lists(hostile_roots, max_size=3).map(tuple),
    ),
    bundle_id=st.one_of(st.just(BUNDLE_ID), junk),
)
@settings(max_examples=300, deadline=None)
def test_a_receipt_of_hostile_fields_verifies_or_is_a_mismatch(
    signature, commitments, bundle_id
):
    receipt = SignedReceipt(bundle_id, commitments, signature)
    # The check runs on OpenSSL's verifier: every signature it is asked
    # about, the table-free verify refuses or accepts alike, with the
    # same exception type and message.
    for check in (
        lambda: receipt.verify(KEY.public_key()),
        lambda: ReceiptAuditor(samples_per_tx=1).audit(
            BUNDLE_ID, receipt, TRACES, verify_key=KEY.public_key()
        ),
    ):
        outcome_on_both_verifiers(check)
    try:
        receipt.verify(KEY.public_key())
    except InvalidSignature:
        pass
    else:
        # Only what the key actually signed verifies (an upper-case
        # spelling of the same roots does; the audit below refuses it).
        assert receipt.signing_hash() == HONEST.signing_hash()
        assert signature == HONEST.signature
    try:
        ReceiptAuditor(samples_per_tx=1).audit(
            BUNDLE_ID, receipt, TRACES, verify_key=KEY.public_key()
        )
    except ReceiptMismatchError:
        return
    assert receipt == HONEST


def _entry(draw_sibling=st.binary(max_size=33)):
    return st.one_of(
        junk,
        st.tuples(st.sampled_from(["L", "R", "P", "X", "", 0]), st.one_of(draw_sibling, junk)),
        st.tuples(st.text(max_size=1)),                       # arity 1
        st.tuples(st.just("L"), draw_sibling, draw_sibling),  # arity 3
    )


@given(
    leaf=st.one_of(st.binary(max_size=40), junk),
    path=st.one_of(junk, st.lists(_entry(), max_size=5).map(tuple)),
    root=st.one_of(st.just(TRACES[0].commitment()), hostile_roots),
    index=st.one_of(st.integers(), junk),
)
@settings(max_examples=300, deadline=None)
def test_a_proof_of_hostile_fields_is_a_proof_that_does_not_verify(
    leaf, path, root, index
):
    assert verify_merkle_proof(MerkleProof(index, leaf, path), root) is False


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_one_hostile_path_entry_in_an_honest_opening_fails_the_audit(data):
    """The auditor's whole path: an opening the device bent in one
    place is a ``proof`` mismatch, whatever the bend."""
    bends = []

    def opening(tx_index, step_index):
        proof = TRACES[tx_index].open_step(step_index)
        if tx_index == 1:
            path = list(proof.path)
            at = data.draw(st.integers(0, len(path) - 1), label="entry")
            bent = data.draw(_entry(), label="bent")
            bends.append((path[at], bent))
            path[at] = bent
            proof = MerkleProof(proof.index, proof.leaf, tuple(path))
        return TRACES[tx_index].records[step_index], proof

    try:
        ReceiptAuditor(samples_per_tx=2, seed=data.draw(st.integers(0, 50))).audit(
            BUNDLE_ID, HONEST, TRACES, verify_key=KEY.public_key(),
            opening=opening,
        )
    except ReceiptMismatchError as error:
        assert error.field == "proof" and error.tx_index == 1
    else:
        # Passing means every bend drawn was the honest entry itself.
        assert all(bent == original for original, bent in bends)


# ----------------------------------------------------------------------
# The other direction: auditor-chosen indices into the device
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def audited(tiny_evalset):
    features = SecurityFeatures.from_level("raw")
    features.receipts = True
    service = HarDTAPEService(tiny_evalset.node, features, charge_fees=False)
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x21" * 32
    )
    session = client.connect(service)
    report, _, _ = client.pre_execute(
        service, session, list(tiny_evalset.transactions[:2])
    )
    hypervisor = session.device.hypervisor
    return hypervisor, report.bundle_id, hypervisor.receipt_for(report.bundle_id)


indices = st.one_of(st.integers(-3, 3), st.integers(), st.integers(0, 4000))


@given(tx_index=indices, step_index=indices)
@settings(max_examples=300, deadline=None)
def test_receipt_opening_opens_a_committed_step_or_refuses_typed(
    audited, tx_index, step_index
):
    hypervisor, bundle_id, receipt = audited
    try:
        record, proof = hypervisor.receipt_opening(bundle_id, tx_index, step_index)
    except ReceiptIndexError as refusal:
        assert isinstance(refusal, ReceiptError)
        assert f"step {step_index} of transaction {tx_index} " in str(refusal)
        return
    # Never a wrap-around: what opens is the step that was asked for.
    assert 0 <= tx_index < len(receipt.commitments)
    assert record.index == proof.index == step_index
    assert verify_merkle_proof(proof, receipt.commitments[tx_index])


def test_receipt_opening_names_what_is_missing(audited):
    hypervisor, bundle_id, receipt = audited
    with pytest.raises(ReceiptMissingError):
        hypervisor.receipt_opening(b"\x00" * 32, 0, 0)
    # At the parent -1 silently opened the *last* transaction.
    with pytest.raises(ReceiptIndexError, match="transaction -1"):
        hypervisor.receipt_opening(bundle_id, -1, 0)
    with pytest.raises(ReceiptIndexError):
        hypervisor.receipt_opening(bundle_id, len(receipt.commitments), 0)
    with pytest.raises(ReceiptIndexError):
        hypervisor.receipt_opening(bundle_id, 0, -1)
