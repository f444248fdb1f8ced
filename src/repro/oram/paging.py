"""The paged world-state schema (paper §IV-D, "Mixing query types").

Three page kinds, all exactly one 1 KB ORAM *block*, so responses are
indistinguishable by size:

* **account pages** — one per account: balance, nonce, code hash, code
  size (the K-V header every BALANCE/EXTCODESIZE query needs),
* **storage pages** — 32 consecutive storage records grouped per page
  (``group = key // 32``), exploiting Solidity's consecutive slot
  layout,
* **code pages** — contract bytecode split into 1 KB chunks.

Page keys are namespaced byte strings.
"""

from __future__ import annotations

from repro.state.account import Account, AccountMeta, Address, EMPTY_CODE_HASH
from repro.state.backend import CODE_PAGE_SIZE, STORAGE_GROUP_SIZE

PAGE_SIZE = CODE_PAGE_SIZE  # 1 KB everywhere, per the paper

_ACCOUNT_TAG = b"A"
_STORAGE_TAG = b"S"
_CODE_TAG = b"C"


def account_page_key(address: Address) -> bytes:
    return _ACCOUNT_TAG + address


def storage_page_key(address: Address, key: int) -> bytes:
    group = key // STORAGE_GROUP_SIZE
    return _STORAGE_TAG + address + group.to_bytes(32, "big")


def code_page_key(address: Address, page_index: int) -> bytes:
    return _CODE_TAG + address + page_index.to_bytes(4, "big")


def encode_account_page(meta: AccountMeta) -> bytes:
    """Serialize an account header into a fixed 1 KB page."""
    body = (
        meta.balance.to_bytes(32, "big")
        + meta.nonce.to_bytes(32, "big")
        + meta.code_hash
        + meta.code_size.to_bytes(32, "big")
    )
    return body.ljust(PAGE_SIZE, b"\x00")


def decode_account_page(page: bytes | None) -> AccountMeta:
    if page is None:
        return AccountMeta(0, 0, EMPTY_CODE_HASH, 0)
    return AccountMeta(
        balance=int.from_bytes(page[0:32], "big"),
        nonce=int.from_bytes(page[32:64], "big"),
        code_hash=page[64:96],
        code_size=int.from_bytes(page[96:128], "big"),
    )


def encode_storage_page(values: dict[int, int], group: int) -> bytes:
    """Pack the 32 records of ``group`` into a 1 KB page."""
    out = bytearray(PAGE_SIZE)
    base = group * STORAGE_GROUP_SIZE
    for slot in range(STORAGE_GROUP_SIZE):
        value = values.get(base + slot, 0)
        out[slot * 32:(slot + 1) * 32] = value.to_bytes(32, "big")
    return bytes(out)


def decode_storage_record(page: bytes | None, key: int) -> int:
    if page is None:
        return 0
    slot = key % STORAGE_GROUP_SIZE
    return int.from_bytes(page[slot * 32:(slot + 1) * 32], "big")


def patch_storage_page(page: bytes | None, slots: dict[int, int]) -> bytes:
    """``page`` (``None`` = never written) with ``slots`` overwritten.

    Every key belongs to the page's group; 0 clears a record.
    """
    out = bytearray(page) if page is not None else bytearray(PAGE_SIZE)
    for key, value in slots.items():
        slot = key % STORAGE_GROUP_SIZE
        out[slot * 32:(slot + 1) * 32] = value.to_bytes(32, "big")
    return bytes(out)


def code_pages(address: Address, code: bytes) -> list[tuple[bytes, bytes]]:
    """``code`` split into ``(page_key, page)`` in page order."""
    return [
        (
            code_page_key(address, start // CODE_PAGE_SIZE),
            code[start:start + CODE_PAGE_SIZE].ljust(CODE_PAGE_SIZE, b"\x00"),
        )
        for start in range(0, len(code), CODE_PAGE_SIZE)
    ]


def account_pages(address: Address, account: Account) -> list[tuple[bytes, bytes]]:
    """The one account -> pages walk: ``(page_key, page)`` in write order.

    The account page first, then one storage page per touched group in
    ascending group order, then the code pages in order — the sequence
    block sync writes and the sharded fleet pins before writing.
    """
    meta = AccountMeta(
        account.balance, account.nonce, account.code_hash, len(account.code)
    )
    pages = [(account_page_key(address), encode_account_page(meta))]
    for group in sorted({key // STORAGE_GROUP_SIZE for key in account.storage}):
        pages.append((
            storage_page_key(address, group * STORAGE_GROUP_SIZE),
            encode_storage_page(account.storage, group),
        ))
    return pages + code_pages(address, account.code)

