"""Wire formats for bundles and trace reports.

Bundles travel user → Hypervisor and traces travel back, both inside
the secure channel.  The encoding is RLP, so sizes are deterministic
and the A.E.DMA cost model can charge real byte counts.

The trace report carries what the paper's tracer sends after a bundle
finishes (workflow step 9): per transaction — ReturnData, gas cost,
status, balance transfers, storage modifications, logs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.rlp import codec as rlp
from repro.rlp.codec import STRING, encode_list, encode_string, read_header
from repro.evm.executor import TransactionResult
from repro.state.account import Address
from repro.state.blocks import Transaction

# Domain label of the bundle id: SHA-256 is the protocol's own hash, and
# Keccak-256 stays where Ethereum fixes it (DESIGN §7.3).
BUNDLE_ID_DOMAIN = b"hardtape.bundle-id.v1"


@dataclass(frozen=True)
class TransactionBundle:
    """An ordered list of transactions simulated as one unit."""

    transactions: tuple[Transaction, ...]
    block_number: int  # the world-state version to simulate against

    def bundle_id(self) -> bytes:
        """16 bytes of a labelled SHA-256 over the bundle's encoding."""
        return hashlib.sha256(BUNDLE_ID_DOMAIN + encode_bundle(self)).digest()[:16]


@dataclass
class TransactionTrace:
    """The per-transaction section of a trace report."""

    status: int
    gas_used: int
    return_data: bytes
    error: str | None = None
    balance_changes: dict[Address, int] = field(default_factory=dict)
    storage_changes: dict[tuple[Address, int], int] = field(default_factory=dict)
    logs: list[tuple[Address, list[int], bytes]] = field(default_factory=list)


@dataclass
class TraceReport:
    """What the user receives for one bundle."""

    bundle_id: bytes
    traces: list[TransactionTrace]
    aborted: bool = False
    abort_reason: str | None = None


def trace_from_result(result: TransactionResult) -> TransactionTrace:
    write_set = result.write_set
    return TransactionTrace(
        status=result.status,
        gas_used=result.gas_used,
        return_data=result.return_data,
        error=result.error,
        balance_changes=dict(write_set.balances) if write_set else {},
        storage_changes=dict(write_set.storage) if write_set else {},
        logs=[(log.address, list(log.topics), log.data) for log in result.logs],
    )




# ---------------------------------------------------------------------------
# RLP encoding
# ---------------------------------------------------------------------------
#
# Both formats are RLP.  A bundle goes through the generic ``rlp.encode``
# / ``rlp.decode`` and a typing walk over the tree; its codec time is
# negligible.  A trace report is the large one (a rollup bundle's runs to
# 178 KB, about a thousand storage records), so its codec is flat: the
# encoder writes each item's prefix from its payload's length and joins
# bytes, never building a tree of lists, and the decoder reads the report
# once, left to right, typing each field as it reads it.  Both use
# ``rlp.codec``'s prefix writers and its one header reader, so the bytes
# are the canonical RLP of the nested lists the report's schema names.
#
# Both decoders are total over bytes a session holder can send: the
# result is a value that re-encodes to exactly the input, or
# ``rlp.DecodingError`` — wrong shapes, non-canonical flags, bad UTF-8,
# addresses that are not 20 bytes and out-of-order map entries included.

ADDRESS_SIZE = 20


def _list(item: rlp.RlpItem, what: str, length: int | None = None) -> list:
    if not isinstance(item, list) or length not in (None, len(item)):
        expected = "a list" if length is None else f"a list of {length}"
        raise rlp.DecodingError(f"{what}: expected {expected}")
    return item


def _records(item: rlp.RlpItem, what: str, width: int) -> list[list]:
    """``item`` as a list of ``width``-field records."""
    return [_list(entry, what, width) for entry in _list(item, what)]


def _bytes(item: rlp.RlpItem, what: str) -> bytes:
    if not isinstance(item, bytes):
        raise rlp.DecodingError(f"{what}: expected a byte string, got a list")
    return item


def _address(item: rlp.RlpItem, what: str) -> bytes:
    if len(_bytes(item, what)) != ADDRESS_SIZE:
        raise rlp.DecodingError(f"{what}: expected a {ADDRESS_SIZE}-byte address")
    return item


def _uint(item: rlp.RlpItem, what: str) -> int:
    return rlp.decode_uint(_bytes(item, what))


def _flag(item: rlp.RlpItem, what: str) -> bool:
    if item not in (b"", b"\x01"):
        raise rlp.DecodingError(f"{what}: expected an empty or 0x01 flag")
    return item == b"\x01"


def encode_bundle(bundle: TransactionBundle) -> bytes:
    items = [
        rlp.encode_uint(bundle.block_number),
        [
            [
                tx.sender,
                tx.to if tx.to is not None else b"",
                rlp.encode_uint(tx.value),
                tx.data,
                rlp.encode_uint(tx.gas_limit),
                rlp.encode_uint(tx.gas_price),
                rlp.encode_uint(tx.nonce if tx.nonce is not None else 0),
                b"\x01" if tx.nonce is not None else b"",
            ]
            for tx in bundle.transactions
        ],
    ]
    return rlp.encode(items)


def decode_bundle(data: bytes) -> TransactionBundle:
    block_number, tx_items = _list(rlp.decode(data), "bundle", 2)
    transactions = []
    for sender, to, value, tx_data, gas_limit, gas_price, nonce, has_nonce in (
        _records(tx_items, "transaction", 8)
    ):
        with_nonce = _flag(has_nonce, "nonce flag")
        if not with_nonce and nonce != b"":
            raise rlp.DecodingError("transaction: a nonce without its flag")
        transactions.append(
            Transaction(
                sender=_address(sender, "sender"),
                # empty: a contract creation
                to=_address(to, "to") if to != b"" else None,
                value=_uint(value, "value"),
                data=_bytes(tx_data, "data"),
                gas_limit=_uint(gas_limit, "gas limit"),
                gas_price=_uint(gas_price, "gas price"),
                nonce=_uint(nonce, "nonce") if with_nonce else None,
            )
        )
    return TransactionBundle(
        transactions=tuple(transactions),
        block_number=_uint(block_number, "block number"),
    )


# -- the trace report, flat --------------------------------------------------


def _uint_item(value: int) -> bytes:
    """The RLP item of ``rlp.encode_uint(value)``."""
    if value < STRING:
        return bytes((value,)) if value else b"\x80"
    return encode_string(value.to_bytes((value.bit_length() + 7) // 8, "big"))


def _encode_trace(trace: TransactionTrace) -> bytes:
    balances = [
        encode_list(encode_string(address) + _uint_item(balance))
        for address, balance in sorted(trace.balance_changes.items())
    ]
    storage = [
        encode_list(encode_string(address) + _uint_item(key) + _uint_item(value))
        for (address, key), value in sorted(trace.storage_changes.items())
    ]
    logs = [
        encode_list(
            encode_string(address)
            + encode_list(b"".join([_uint_item(topic) for topic in topics]))
            + encode_string(log_data)
        )
        for address, topics, log_data in trace.logs
    ]
    return encode_list(
        _uint_item(trace.status)
        + _uint_item(trace.gas_used)
        + encode_string(trace.return_data)
        + encode_string((trace.error or "").encode())
        + encode_list(b"".join(balances))
        + encode_list(b"".join(storage))
        + encode_list(b"".join(logs))
    )


def encode_trace_report(report: TraceReport) -> bytes:
    return encode_list(
        encode_string(report.bundle_id)
        + (b"\x01" if report.aborted else b"\x80")
        + encode_string((report.abort_reason or "").encode())
        + encode_list(b"".join([_encode_trace(trace) for trace in report.traces]))
    )


def _read_list(data: bytes, pos: int, end: int, what: str) -> tuple[int, int]:
    """The payload bounds of the list at ``pos``."""
    start, stop, is_list = read_header(data, pos, end)
    if not is_list:
        raise rlp.DecodingError(f"{what}: expected a list")
    return start, stop


def _read_string(data: bytes, pos: int, end: int, what: str) -> tuple[bytes, int]:
    start, stop, is_list = read_header(data, pos, end)
    if is_list:
        raise rlp.DecodingError(f"{what}: expected a byte string, got a list")
    return data[start:stop], stop


def _read_uint(data: bytes, pos: int, end: int, what: str) -> tuple[int, int]:
    start, stop, is_list = read_header(data, pos, end)
    if is_list or (start < stop and not data[start]):
        raise rlp.DecodingError(f"{what}: expected a minimal integer")
    return int.from_bytes(data[start:stop], "big"), stop


def _read_address(data: bytes, pos: int, end: int, what: str) -> tuple[bytes, int]:
    # 20 bytes have one canonical encoding: the prefix 0x94, then them.
    stop = pos + 1 + ADDRESS_SIZE
    if stop > end or data[pos] != STRING + ADDRESS_SIZE:
        raise rlp.DecodingError(f"{what}: expected a {ADDRESS_SIZE}-byte address")
    return data[pos + 1:stop], stop


def _read_flag(data: bytes, pos: int, end: int, what: str) -> tuple[bool, int]:
    # b"\x01" and b"" have one canonical encoding each: 0x01 and 0x80.
    if pos < end and data[pos] in (0x01, STRING):
        return data[pos] == 0x01, pos + 1
    raise rlp.DecodingError(f"{what}: expected an empty or 0x01 flag")


def _read_text(data: bytes, pos: int, end: int, what: str) -> tuple[str | None, int]:
    raw, pos = _read_string(data, pos, end, what)
    try:
        return raw.decode() or None, pos
    except UnicodeDecodeError as error:
        raise rlp.DecodingError(f"{what}: {error}") from error


def _closed(pos: int, stop: int, what: str) -> None:
    """A record read field by field must end where its list ends."""
    if pos != stop:
        raise rlp.DecodingError(f"{what}: more fields than its schema")


def _out_of_order(what: str) -> rlp.DecodingError:
    return rlp.DecodingError(f"{what}: entries out of order or repeated")


def _read_storage_changes(
    data: bytes, pos: int, end: int
) -> tuple[dict[tuple[Address, int], int], int]:
    """The report's bulk: ~1,000 records a rollup transaction, so each is
    read inline, three header reads and no other call."""
    at, leg_end, is_list = read_header(data, pos, end)
    if not is_list:
        raise rlp.DecodingError("storage changes: expected a list")
    changes: dict[tuple[Address, int], int] = {}
    previous = None
    while at < leg_end:
        at, record_end, is_list = read_header(data, at, leg_end)
        address_end = at + 1 + ADDRESS_SIZE
        if not is_list or address_end > record_end or data[at] != STRING + ADDRESS_SIZE:
            raise rlp.DecodingError("storage change: expected [address, key, value]")
        address = data[at + 1:address_end]
        start, at, is_list = read_header(data, address_end, record_end)
        if is_list or (start < at and not data[start]):
            raise rlp.DecodingError("storage key: expected a minimal integer")
        slot = (address, int.from_bytes(data[start:at], "big"))
        start, at, is_list = read_header(data, at, record_end)
        if is_list or (start < at and not data[start]):
            raise rlp.DecodingError("storage value: expected a minimal integer")
        if at != record_end:
            raise rlp.DecodingError("storage change: more fields than its schema")
        if previous is not None and slot <= previous:
            raise _out_of_order("storage changes")
        changes[slot] = int.from_bytes(data[start:at], "big")
        previous = slot
    return changes, leg_end


def _read_trace(data: bytes, pos: int, end: int) -> tuple[TransactionTrace, int]:
    pos, stop = _read_list(data, pos, end, "trace")
    status, pos = _read_uint(data, pos, stop, "status")
    gas_used, pos = _read_uint(data, pos, stop, "gas used")
    return_data, pos = _read_string(data, pos, stop, "return data")
    error, pos = _read_text(data, pos, stop, "error")

    balance_changes: dict[Address, int] = {}
    at, pos = _read_list(data, pos, stop, "balance changes")
    previous = None
    while at < pos:
        at, record_end = _read_list(data, at, pos, "balance change")
        address, at = _read_address(data, at, record_end, "address")
        balance, at = _read_uint(data, at, record_end, "balance")
        _closed(at, record_end, "balance change")
        if previous is not None and address <= previous:
            raise _out_of_order("balance changes")
        balance_changes[address] = balance
        previous = address

    storage_changes, pos = _read_storage_changes(data, pos, stop)

    logs = []
    at, pos = _read_list(data, pos, stop, "logs")
    while at < pos:
        at, record_end = _read_list(data, at, pos, "log")
        address, at = _read_address(data, at, record_end, "log address")
        topic_at, at = _read_list(data, at, record_end, "topics")
        topics = []
        while topic_at < at:
            topic, topic_at = _read_uint(data, topic_at, at, "topic")
            topics.append(topic)
        log_data, at = _read_string(data, at, record_end, "log data")
        _closed(at, record_end, "log")
        logs.append((address, topics, log_data))
    _closed(pos, stop, "trace")
    trace = TransactionTrace(
        status=status,
        gas_used=gas_used,
        return_data=return_data,
        error=error,
        balance_changes=balance_changes,
        storage_changes=storage_changes,
        logs=logs,
    )
    return trace, stop


def decode_trace_report(data: bytes) -> TraceReport:
    data = bytes(data)
    pos, stop = _read_list(data, 0, len(data), "trace report")
    if stop != len(data):
        raise rlp.DecodingError("trailing bytes after the trace report")
    bundle_id, pos = _read_string(data, pos, stop, "bundle id")
    aborted, pos = _read_flag(data, pos, stop, "aborted flag")
    abort_reason, pos = _read_text(data, pos, stop, "abort reason")
    at, pos = _read_list(data, pos, stop, "traces")
    _closed(pos, stop, "trace report")
    traces = []
    while at < pos:
        trace, at = _read_trace(data, at, pos)
        traces.append(trace)
    return TraceReport(
        bundle_id=bundle_id, traces=traces, aborted=aborted, abort_reason=abort_reason
    )
