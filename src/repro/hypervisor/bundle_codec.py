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

from repro import rlp
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
# Both decoders are total over bytes a session holder can send: the
# result is a value that re-encodes to exactly the input, or
# ``rlp.DecodingError`` — wrong shapes, non-canonical flags, bad UTF-8
# and out-of-order map entries included.


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


def _uint(item: rlp.RlpItem, what: str) -> int:
    return rlp.decode_uint(_bytes(item, what))


def _flag(item: rlp.RlpItem, what: str) -> bool:
    if item not in (b"", b"\x01"):
        raise rlp.DecodingError(f"{what}: expected an empty or 0x01 flag")
    return item == b"\x01"


def _text(item: rlp.RlpItem, what: str) -> str | None:
    try:
        return _bytes(item, what).decode() or None
    except UnicodeDecodeError as error:
        raise rlp.DecodingError(f"{what}: {error}") from error


def _sorted_map(pairs: list[tuple], what: str) -> dict:
    """``pairs`` as a dict, refusing any order ``sorted()`` would not emit."""
    if any(a[0] >= b[0] for a, b in zip(pairs, pairs[1:])):
        raise rlp.DecodingError(f"{what}: entries out of order or repeated")
    return dict(pairs)


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
                sender=_bytes(sender, "sender"),
                to=_bytes(to, "to") or None,
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


def encode_trace_report(report: TraceReport) -> bytes:
    items = [
        report.bundle_id,
        b"\x01" if report.aborted else b"",
        (report.abort_reason or "").encode(),
        [
            [
                rlp.encode_uint(trace.status),
                rlp.encode_uint(trace.gas_used),
                trace.return_data,
                (trace.error or "").encode(),
                [
                    [address, rlp.encode_uint(balance)]
                    for address, balance in sorted(trace.balance_changes.items())
                ],
                [
                    [address, rlp.encode_uint(key), rlp.encode_uint(value)]
                    for (address, key), value in sorted(trace.storage_changes.items())
                ],
                [
                    [address, [rlp.encode_uint(t) for t in topics], data]
                    for address, topics, data in trace.logs
                ],
            ]
            for trace in report.traces
        ],
    ]
    return rlp.encode(items)


def decode_trace_report(data: bytes) -> TraceReport:
    bundle_id, aborted, abort_reason, trace_items = _list(
        rlp.decode(data), "trace report", 4
    )
    traces = []
    for status, gas_used, return_data, error, balances, storages, logs in (
        _records(trace_items, "trace", 7)
    ):
        traces.append(
            TransactionTrace(
                status=_uint(status, "status"),
                gas_used=_uint(gas_used, "gas used"),
                return_data=_bytes(return_data, "return data"),
                error=_text(error, "error"),
                balance_changes=_sorted_map(
                    [
                        (_bytes(address, "address"), _uint(balance, "balance"))
                        for address, balance in _records(
                            balances, "balance change", 2
                        )
                    ],
                    "balance changes",
                ),
                storage_changes=_sorted_map(
                    [
                        (
                            (_bytes(address, "address"), _uint(key, "storage key")),
                            _uint(value, "storage value"),
                        )
                        for address, key, value in _records(
                            storages, "storage change", 3
                        )
                    ],
                    "storage changes",
                ),
                logs=[
                    (
                        _bytes(address, "log address"),
                        [_uint(t, "topic") for t in _list(topics, "topics")],
                        _bytes(log_data, "log data"),
                    )
                    for address, topics, log_data in _records(logs, "log", 3)
                ],
            )
        )
    return TraceReport(
        bundle_id=_bytes(bundle_id, "bundle id"),
        traces=traces,
        aborted=_flag(aborted, "aborted flag"),
        abort_reason=_text(abort_reason, "abort reason"),
    )
