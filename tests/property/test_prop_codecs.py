"""Property-based tests for the wire codecs (bundle, trace report),
and hand-built refusal tables for the bundle, sealed ticket state,
journal record, SEC1 point and ECDSA signature beside the trace
report's."""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.rlp import codec as rlp
from repro.crypto import ecc
from repro.crypto.ecc import GX, GY, P, EccDecodingError
from repro.rlp.codec import encode_list
from repro.hypervisor.bundle_codec import (
    TraceReport,
    TransactionBundle,
    TransactionTrace,
    decode_bundle,
    decode_trace_report,
    encode_bundle,
    encode_trace_report,
)
from repro.hypervisor.resumption import TicketIntegrityError, TicketState
from repro.recovery import journal
from repro.recovery.state import RecoveryIntegrityError
from repro.state.blocks import Transaction
from tests.hostile import mutated
from tests.oracles import tree_decode_trace_report, tree_encode_trace_report

addresses = st.binary(min_size=20, max_size=20)
words = st.integers(min_value=0, max_value=2**256 - 1)

transactions = st.builds(
    Transaction,
    sender=addresses,
    to=st.one_of(st.none(), addresses),
    value=st.integers(min_value=0, max_value=2**100),
    data=st.binary(max_size=200),
    gas_limit=st.integers(min_value=21_000, max_value=2**40),
    gas_price=st.integers(min_value=0, max_value=2**40),
    nonce=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32)),
)

bundles = st.builds(
    lambda txs, block: TransactionBundle(tuple(txs), block),
    st.lists(transactions, min_size=1, max_size=5),
    st.integers(min_value=0, max_value=2**32),
)


@given(bundles)
@settings(max_examples=80, deadline=None)
def test_bundle_roundtrip(bundle):
    assert decode_bundle(encode_bundle(bundle)) == bundle


@given(bundles)
@settings(max_examples=40, deadline=None)
def test_bundle_id_stable(bundle):
    assert bundle.bundle_id() == decode_bundle(encode_bundle(bundle)).bundle_id()


traces = st.builds(
    TransactionTrace,
    status=st.integers(min_value=0, max_value=1),
    gas_used=st.integers(min_value=0, max_value=2**40),
    return_data=st.binary(max_size=100),
    error=st.one_of(st.none(), st.text(min_size=1, max_size=30)),
    balance_changes=st.dictionaries(addresses, words, max_size=4),
    # Up to eight records: with 32-byte keys and values a record and its
    # leg pass 55 bytes, so long-list prefixes are drawn too.
    storage_changes=st.dictionaries(st.tuples(addresses, words), words, max_size=8),
    logs=st.lists(
        st.tuples(
            addresses,
            st.lists(st.integers(min_value=0, max_value=2**128), max_size=3),
            st.binary(max_size=40),
        ),
        max_size=3,
    ),
)

reports = st.builds(
    TraceReport,
    bundle_id=st.binary(min_size=16, max_size=16),
    traces=st.lists(traces, max_size=4),
    aborted=st.booleans(),
    abort_reason=st.one_of(st.none(), st.text(min_size=1, max_size=40)),
)


# A report about the size of the largest rollup bundle's (178 KB): its
# payload length takes three bytes.
LARGE_REPORT = TraceReport(
    bundle_id=b"\x07" * 16,
    traces=[
        TransactionTrace(
            status=1,
            gas_used=2**40,
            return_data=b"\xaa" * 300,
            storage_changes={
                (bytes([n % 7]) * 20, n * 2**200): 2**256 - 1 - n for n in range(1_000)
            },
        )
        for _ in range(2)
    ],
)


@given(reports)
@settings(max_examples=80, deadline=None)
@example(LARGE_REPORT)
def test_trace_report_roundtrip(report):
    decoded = decode_trace_report(encode_trace_report(report))
    assert decoded.bundle_id == report.bundle_id
    assert decoded.aborted == report.aborted
    assert decoded.abort_reason == report.abort_reason
    assert len(decoded.traces) == len(report.traces)
    for ours, original in zip(decoded.traces, report.traces):
        assert ours.status == original.status
        assert ours.gas_used == original.gas_used
        assert ours.return_data == original.return_data
        assert ours.error == original.error
        assert ours.balance_changes == original.balance_changes
        assert ours.storage_changes == original.storage_changes
        assert ours.logs == original.logs


def _has_an_address_of_the_wrong_length(report: TraceReport) -> bool:
    return any(
        len(address) != 20
        for trace in report.traces
        for address in [
            *trace.balance_changes,
            *(address for address, _ in trace.storage_changes),
            *(address for address, _, _ in trace.logs),
        ]
    )


@given(reports)
@settings(max_examples=150, deadline=None)
@example(LARGE_REPORT)
def test_the_flat_encoder_writes_the_tree_encoders_bytes(report):
    encoded = encode_trace_report(report)
    assert encoded == tree_encode_trace_report(report)
    if report is LARGE_REPORT:
        assert encoded[0] == 0xFA and len(encoded) > 65_535


def _same_verdict(data: bytes) -> None:
    """The flat decoder and the tree decoder return equal values or both
    refuse; the one difference allowed is an address that is not 20
    bytes, which only the flat decoder refuses."""
    try:
        expected = tree_decode_trace_report(data)
    except rlp.DecodingError:
        expected = None
    try:
        decoded = decode_trace_report(data)
    except rlp.DecodingError:
        assert expected is None or _has_an_address_of_the_wrong_length(expected)
        return
    assert decoded == expected


@given(mutated(reports.map(encode_trace_report)))
@settings(max_examples=500, deadline=None)
def test_the_flat_decoder_agrees_with_the_tree_decoder_on_mutated_reports(data):
    _same_verdict(data)


@given(st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_the_flat_decoder_agrees_with_the_tree_decoder_on_arbitrary_bytes(data):
    _same_verdict(data)


class Raw(bytes):
    """Bytes written into a hand-built report as they are, not as an item."""


def _hand_encoded(tree) -> bytes:
    if isinstance(tree, Raw):
        return bytes(tree)
    if isinstance(tree, bytes):
        return rlp.encode(tree)
    return encode_list(b"".join(_hand_encoded(item) for item in tree))


A, B = b"\x0a" * 20, b"\x0b" * 20


def _report_tree() -> list:
    """A report's lists as ``tree_encode_trace_report`` builds them."""
    trace = [
        b"\x01", b"\x52\x08", b"\xc0\xde", b"reverted",
        [[A, b"\x05"], [B, b"\x06"]],
        [[A, b"\x01", b"\x02"], [A, b"\x02", b"\x03"], [B, b"", b"\x04"]],
        [[A, [b"\x07", b"\x08"], b"log"]],
    ]
    return [b"\x01" * 16, b"", b"", [trace]]


def _set(path, value):
    def edit(tree):
        *parents, last = path
        for index in parents:
            tree = tree[index]
        tree[last] = value
    return edit


TRACE = (3, 0)
REFUSALS = {
    "status-non-minimal": _set((*TRACE, 0), b"\x00\x01"),
    "gas-non-minimal": _set((*TRACE, 1), b"\x00\x52\x08"),
    "balance-non-minimal": _set((*TRACE, 4, 0, 1), b"\x00\x05"),
    "storage-key-non-minimal": _set((*TRACE, 5, 0, 1), b"\x00\x01"),
    "storage-key-zero-byte": _set((*TRACE, 5, 2, 1), b"\x00"),
    "storage-value-non-minimal": _set((*TRACE, 5, 1, 2), b"\x00\x03"),
    "topic-non-minimal": _set((*TRACE, 6, 0, 1, 0), b"\x00\x07"),
    "aborted-flag-0x02": _set((1,), b"\x02"),
    "aborted-flag-a-list": _set((1,), []),
    "balances-out-of-order": _set((*TRACE, 4), [[B, b"\x06"], [A, b"\x05"]]),
    "storage-out-of-order": _set((*TRACE, 5), [[A, b"\x02", b"\x03"], [A, b"\x01", b"\x02"]]),
    "storage-repeated": _set((*TRACE, 5), [[A, b"\x01", b"\x02"], [A, b"\x01", b"\x03"]]),
    "error-bad-utf8": _set((*TRACE, 3), b"\xff\xfe"),
    "abort-reason-bad-utf8": _set((2,), b"\xc3"),
    "storage-record-of-2": _set((*TRACE, 5, 0), [A, b"\x01"]),
    "storage-record-of-4": _set((*TRACE, 5, 0), [A, b"\x01", b"\x02", b""]),
    "balance-record-of-3": _set((*TRACE, 4, 0), [A, b"\x05", b""]),
    "log-record-of-2": _set((*TRACE, 6, 0), [A, [b"\x07"]]),
    "trace-of-6": lambda tree: tree[3][0].pop(),
    "report-of-5": lambda tree: tree.append(b""),
    "storage-key-a-list": _set((*TRACE, 5, 0, 1), [b"\x01"]),
    "topics-a-string": _set((*TRACE, 6, 0, 1), b"\x07"),
    "a-long-length-below-56": _set((*TRACE, 6, 0, 2), Raw(b"\xb8\x03log")),
    "a-long-list-below-56": _set((*TRACE, 5, 0), Raw(b"\xf8\x17\x94" + A + b"\x01\x02")),
    "a-single-byte-as-a-string": _set((*TRACE, 4, 0, 1), Raw(b"\x81\x05")),
    "a-long-length-with-a-leading-zero": _set(
        (*TRACE, 2), Raw(b"\xb9\x00\x38" + b"\xc0" * 56)
    ),
}


def test_the_hand_built_report_decodes():
    encoded = _hand_encoded(_report_tree())
    assert encoded == tree_encode_trace_report(decode_trace_report(encoded))
    assert decode_trace_report(encoded) == tree_decode_trace_report(encoded)


@pytest.mark.parametrize("edit", list(REFUSALS.values()), ids=list(REFUSALS))
def test_both_decoders_refuse_each_non_canonical_report(edit):
    tree = _report_tree()
    edit(tree)
    encoded = _hand_encoded(tree)
    with pytest.raises(rlp.DecodingError):
        tree_decode_trace_report(encoded)
    with pytest.raises(rlp.DecodingError):
        decode_trace_report(encoded)


def test_both_decoders_refuse_trailing_bytes():
    encoded = _hand_encoded(_report_tree()) + b"\x80"
    with pytest.raises(rlp.DecodingError):
        tree_decode_trace_report(encoded)
    with pytest.raises(rlp.DecodingError, match="trailing"):
        decode_trace_report(encoded)



# A bundle is [block number, [transaction, ...]], each transaction the
# eight fields below; the nonce rides with a 0x01 flag, or is empty with
# an empty one.  Each entry breaks one rule and names the refusal.
SENDER, TO = b"\x0c" * 20, b"\x0d" * 20


def _bundle_tree() -> list:
    transaction = [
        SENDER, TO, b"\x05", b"\xca\xfe", b"\x52\x08", b"\x01", b"\x07", b"\x01",
    ]
    return [b"\x2a", [transaction]]


def _bundle_edited(edit) -> bytes:
    tree = _bundle_tree()
    edit(tree)
    return rlp.encode(tree)


def _bundle_with(field, value) -> bytes:
    """The bundle with its transaction's ``field`` replaced by ``value``."""
    return _bundle_edited(_set((1, 0, field), value))


BUNDLE_REFUSALS = {
    "nonce-without-its-flag": (_bundle_with(7, b""), "a nonce without its flag"),
    "nonce-flag-0x02": (_bundle_with(7, b"\x02"), "nonce flag: expected an empty or 0x01"),
    "nonce-flag-a-list": (_bundle_with(7, []), "nonce flag: expected an empty or 0x01"),
    "sender-19-bytes": (_bundle_with(0, SENDER[:19]), "sender: expected a 20-byte address"),
    "sender-21-bytes": (_bundle_with(0, SENDER + b"\x00"), "sender: expected a 20-byte address"),
    "to-19-bytes": (_bundle_with(1, TO[:19]), "to: expected a 20-byte address"),
    "to-21-bytes": (_bundle_with(1, TO + b"\x00"), "to: expected a 20-byte address"),
    "value-non-minimal": (_bundle_with(2, b"\x00\x05"), "non-minimal integer encoding"),
    "gas-limit-non-minimal": (
        _bundle_with(4, b"\x00\x52\x08"), "non-minimal integer encoding"
    ),
    "nonce-non-minimal": (_bundle_with(6, b"\x00\x07"), "non-minimal integer encoding"),
    "transaction-of-7": (
        _bundle_edited(lambda tree: tree[1][0].pop()), "transaction: expected a list of 8"
    ),
    "bundle-of-3": (
        _bundle_edited(lambda tree: tree.append(b"")), "bundle: expected a list of 2"
    ),
    "trailing-bytes": (rlp.encode(_bundle_tree()) + b"\x80", "trailing bytes after RLP item"),
}


def test_the_hand_built_bundle_decodes():
    encoded = rlp.encode(_bundle_tree())
    bundle = decode_bundle(encoded)
    (transaction,) = bundle.transactions
    assert (bundle.block_number, transaction.nonce, transaction.to) == (42, 7, TO)
    assert encode_bundle(bundle) == encoded


@pytest.mark.parametrize(
    "data, message", list(BUNDLE_REFUSALS.values()), ids=list(BUNDLE_REFUSALS)
)
def test_bundle_decoder_refuses_each_malformed_bundle(data, message):
    with pytest.raises(rlp.DecodingError, match=message):
        decode_bundle(data)

# ``TicketState`` is two 8-byte counters then four length-prefixed
# blobs, the resumption secret last.  Each edit below is one way a blob
# under the ticket seal can disagree with that layout.
TICKET = TicketState(
    session_id=b"\x01" * 16, user_public=b"\x02" * 33,
    hv_signing_secret=b"\x03" * 32, resumption_secret=b"\x04" * 32,
    send_watermark=5, recv_watermark=6,
).encode()
FIXED = 16      # two 8-byte counters ahead of the first length
SECRET_LENGTH = len(TICKET) - 32 - 2


def _ticket_length(at: int, value: int):
    return lambda data: data[:at] + value.to_bytes(2, "big") + data[at + 2:]


TICKET_REFUSALS = {
    "empty": lambda data: b"",
    "fixed-fields-truncated": lambda data: data[:FIXED - 1],
    "no-length-fields": lambda data: data[:FIXED],
    "a-length-field-truncated": lambda data: data[:FIXED + 1],
    "last-blob-truncated": lambda data: data[:-1],
    "a-trailing-byte": lambda data: data + b"\x00",
    "a-length-past-the-end": _ticket_length(SECRET_LENGTH, 32 + 1),
    "a-length-short-by-one": _ticket_length(FIXED, 15),
    "a-length-of-zero": _ticket_length(FIXED, 0),
}


def test_the_hand_built_ticket_state_decodes():
    assert TicketState.decode(TICKET).encode() == TICKET


@pytest.mark.parametrize(
    "edit", list(TICKET_REFUSALS.values()), ids=list(TICKET_REFUSALS)
)
def test_ticket_state_decoder_refuses_each_malformed_state(edit):
    with pytest.raises(TicketIntegrityError):
        TicketState.decode(edit(TICKET))


# A journal record is canonical JSON (sorted keys, no spaces, ASCII) of
# ``{"kind", "payload"}``; every other spelling, shape or kind is refused.
RECORD = journal.encode_record("root", journal.root_payload(b"\xab" * 2))
RECORD_REFUSALS = {
    "empty": b"",
    "not-utf8": b"\xff",
    "not-json": b'{"kind":',
    "a-list": b"[]",
    "a-string": b'"root"',
    "kind-missing": b'{"payload":{"root":"abab"}}',
    "payload-missing": b'{"kind":"root"}',
    "kind-unknown": b'{"kind":"bogus","payload":{}}',
    "kind-a-number": b'{"kind":1,"payload":{}}',
    "payload-a-string": b'{"kind":"root","payload":"ab"}',
    "payload-a-number": b'{"kind":"root","payload":1}',
    "payload-a-list-of-pairs": b'{"kind":"root","payload":[["root","abab"]]}',
    "keys-out-of-order": b'{"payload":{"root":"abab"},"kind":"root"}',
    "a-space-after-a-colon": b'{"kind": "root","payload":{"root":"abab"}}',
    "a-trailing-newline": RECORD + b"\n",
    "a-utf8-bom": b"\xef\xbb\xbf" + RECORD,
    "a-duplicate-key": b'{"kind":"root","kind":"root","payload":{"root":"abab"}}',
    "an-extra-field": b'{"extra":0,"kind":"root","payload":{"root":"abab"}}',
    "an-escaped-spelling": b'{"kind":"\\u0072oot","payload":{"root":"abab"}}',
    "unescaped-non-ascii": b'{"kind":"root","payload":{"root":"\xc3\xa9"}}',
    "an-exponent-spelling": b'{"kind":"lease","payload":{"until":1e0}}',
    "a-leading-zero": b'{"kind":"lease","payload":{"until":01}}',
    "an-integer-past-the-digit-limit":
        b'{"kind":"lease","payload":{"until":' + b"1" * 5000 + b"}}",
    "nesting-past-the-recursion-limit":
        b'{"kind":"root","payload":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
}


def test_the_hand_built_journal_record_decodes():
    assert RECORD == b'{"kind":"root","payload":{"root":"abab"}}'
    assert journal.decode_record(RECORD) == ("root", {"root": "abab"})


@pytest.mark.parametrize(
    "data", list(RECORD_REFUSALS.values()), ids=list(RECORD_REFUSALS)
)
def test_journal_record_decoder_refuses_each_malformed_record(data):
    with pytest.raises(RecoveryIntegrityError):
        journal.decode_record(data)


# A SEC1 point is 0x04, then x and y as 32 bytes each, both below p and
# on y^2 = x^3 + 7.  Each entry breaks one of those rules.  SMALL_X and
# SMALL_Y are curve points with one coordinate small enough that it can
# be spelled one byte short or with p added and still fit its field.
SMALL_X = ecc.Point(1, 0x4218F20AE6C646B363DB68605822FB14264CA8D2587FDD6FBC750D587E76A7EE)
SMALL_Y = ecc.Point(0x1FE1E5EF3FCEB5C135AB7741333CE5A6E80D68167653F6B2B24BCBCFAAAFF507, 1)


def _sec1(x: int, y: int, prefix: bytes = b"\x04", y_width: int = 32) -> bytes:
    return prefix + x.to_bytes(32, "big") + y.to_bytes(y_width, "big")


POINT_REFUSALS = {
    "empty": b"",
    "prefix-0x00": _sec1(GX, GY, prefix=b"\x00"),
    "prefix-0x02": _sec1(GX, GY, prefix=b"\x02"),
    "prefix-0x03": _sec1(GX, GY, prefix=b"\x03"),
    "64-bytes-y-a-byte-short": _sec1(SMALL_Y.x, SMALL_Y.y, y_width=31),
    "66-bytes-y-a-byte-long": _sec1(GX, GY, y_width=33),
    "x-equals-p": _sec1(P, GY),
    "y-equals-p": _sec1(GX, P),
    "x-plus-p": _sec1(SMALL_X.x + P, SMALL_X.y),
    "y-plus-p": _sec1(SMALL_Y.x, SMALL_Y.y + P),
    "y-plus-1": _sec1(GX, GY + 1),
    "all-zeros": b"\x00" * 65,
    "zero-coordinates": _sec1(0, 0),
}


@pytest.mark.parametrize("point", [ecc.G, SMALL_X, SMALL_Y], ids=["G", "small-x", "small-y"])
def test_the_hand_built_points_decode(point):
    assert ecc.decode_point(_sec1(point.x, point.y)) == point


@pytest.mark.parametrize(
    "data", list(POINT_REFUSALS.values()), ids=list(POINT_REFUSALS)
)
def test_point_decoder_refuses_each_malformed_point(data):
    with pytest.raises(EccDecodingError):
        ecc.decode_point(data)


# A signature is r then s, 32 bytes each; the scalars' range is the
# verifier's check, not the decoder's.
SIGNATURE = ecc.PrivateKey(1).sign(hashlib.sha256(b"refusals").digest()).to_bytes()
SIGNATURE_REFUSALS = {
    "empty": b"",
    "63-bytes": SIGNATURE[:-1],
    "65-bytes": SIGNATURE + b"\x00",
}


def test_the_hand_built_signature_decodes():
    assert ecc.Signature.from_bytes(SIGNATURE).to_bytes() == SIGNATURE


@pytest.mark.parametrize(
    "data", list(SIGNATURE_REFUSALS.values()), ids=list(SIGNATURE_REFUSALS)
)
def test_signature_decoder_refuses_each_malformed_signature(data):
    with pytest.raises(EccDecodingError):
        ecc.Signature.from_bytes(data)


@given(
    reports.filter(lambda report: any(
        trace.balance_changes or trace.storage_changes or trace.logs
        for trace in report.traces
    )),
    st.sampled_from([0, 19, 21, 32]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_an_address_that_is_not_20_bytes_is_refused(report, size, data):
    """The tree decoder admitted any byte string as an address."""
    trace = data.draw(st.sampled_from([
        trace for trace in report.traces
        if trace.balance_changes or trace.storage_changes or trace.logs
    ]))
    wrong = b"\x05" * size
    if trace.balance_changes:
        trace.balance_changes = {wrong: 1}
    elif trace.storage_changes:
        trace.storage_changes = {(wrong, 1): 2}
    else:
        trace.logs[0] = (wrong, *trace.logs[0][1:])
    encoded = encode_trace_report(report)
    assert tree_decode_trace_report(encoded) == report
    with pytest.raises(rlp.DecodingError, match="20-byte address|address, key"):
        decode_trace_report(encoded)


