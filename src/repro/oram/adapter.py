"""The oblivious world-state backend: ORAM-backed ``StateBackend``.

This is HarDTAPE's data path for world-state queries (workflow step 8):
every account header, storage record, or code page read becomes exactly
one Path ORAM access of one fixed-size page.  The adapter also handles
block synchronization (step 11): after Merkle verification a block's
delta costs one read-modify-write access per page it changed
(``sync_delta``); state with no predecessor is bulk-loaded
(``sync_account`` / ``sync_world``).

A ``clock`` callable supplies simulated timestamps so the ORAM server's
adversary-visible trace carries the timing the hardware model computes.
``on_query`` is an optional tap called with ``(kind, page_key)`` on each
logical query.  Nothing in the served path passes one: the HEVM tracer
drives the code-page prefetcher and prices each access itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.oram import paging
from repro.oram.client import PathOramClient
from repro.state.account import EMPTY_CODE_HASH, Account, AccountMeta, Address
from repro.state.backend import CODE_PAGE_SIZE

if TYPE_CHECKING:  # hardware imports this module; CostModel is typing only
    from repro.hardware.timing import CostModel


@dataclass
class QueryRecord:
    """Ground-truth log entry (NOT visible to the adversary)."""

    kind: str  # "account" | "storage" | "code" | "prefetch"
    page_key: bytes
    sim_time_us: float


@dataclass
class QueryStats:
    account_queries: int = 0
    storage_queries: int = 0
    code_queries: int = 0
    prefetch_queries: int = 0
    log: list[QueryRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return (
            self.account_queries
            + self.storage_queries
            + self.code_queries
            + self.prefetch_queries
        )


class MissingCodeError(Exception):
    """A delta proves a code hash the store does not hold and ships no code."""


class ObliviousStateBackend:
    """``StateBackend`` over a Path ORAM client."""

    def __init__(
        self,
        client: PathOramClient,
        clock: Callable[[], float] | None = None,
        on_query: Callable[[str, bytes], None] | None = None,
    ) -> None:
        if client.block_size != paging.PAGE_SIZE:
            raise ValueError(
                f"ORAM block size {client.block_size} != page size {paging.PAGE_SIZE}"
            )
        self._client = client
        self._clock = clock or (lambda: 0.0)
        self._on_query = on_query
        self.stats = QueryStats()
        # Code sizes learned from account pages (needed to bound paging).
        self._code_sizes: dict[Address, int] = {}

    @property
    def client(self) -> PathOramClient:
        """The underlying ORAM client (read-only observability access)."""
        return self._client

    def replace_client(self, client: PathOramClient) -> None:
        """Repoint this backend at a recovered ORAM client.

        Used by the recovery plane after a Hypervisor restart: the old
        in-memory client died with the firmware; the successor (rebuilt
        from checkpoint + journal) takes its place.  Learned code sizes
        are kept — they are re-derivable public metadata, not trust.
        """
        if client.block_size != paging.PAGE_SIZE:
            raise ValueError(
                f"ORAM block size {client.block_size} != page size {paging.PAGE_SIZE}"
            )
        self._client = client

    def access_cost_us(self, cost: CostModel) -> float:
        """The modelled price of one page access against this store."""
        return self._client_cost_us(self._client, cost)

    @staticmethod
    def _client_cost_us(client, cost: CostModel) -> float:
        """The only place a store's geometry meets the cost model."""
        server = client.server
        return cost.oram_access_us(
            server.height, server.bucket_size, client.block_size / 1024.0
        )

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def _query(self, kind: str, page_key: bytes) -> bytes | None:
        now = self._clock()
        if self._on_query is not None:
            self._on_query(kind, page_key)
        page = self._client.read(page_key, sim_time_us=now)
        self.stats.log.append(QueryRecord(kind, page_key, now))
        if kind == "account":
            self.stats.account_queries += 1
        elif kind == "storage":
            self.stats.storage_queries += 1
        elif kind == "code":
            self.stats.code_queries += 1
        else:
            self.stats.prefetch_queries += 1
        return page

    def get_meta(self, address: Address) -> AccountMeta:
        page = self._query("account", paging.account_page_key(address))
        meta = paging.decode_account_page(page)
        self._code_sizes[address] = meta.code_size
        return meta

    def get_storage(self, address: Address, key: int) -> int:
        page = self._query("storage", paging.storage_page_key(address, key))
        return paging.decode_storage_record(page, key)

    def get_code_page(self, address: Address, page_index: int) -> bytes:
        page = self._query("code", paging.code_page_key(address, page_index))
        return page if page is not None else b"\x00" * CODE_PAGE_SIZE

    def get_code(self, address: Address) -> bytes:
        size = self._code_sizes.get(address)
        if size is None:
            size = self.get_meta(address).code_size
        if size == 0:
            return b""
        pages = [
            self.get_code_page(address, index)
            for index in range((size + CODE_PAGE_SIZE - 1) // CODE_PAGE_SIZE)
        ]
        return b"".join(pages)[:size]

    def prefetch_code_page(self, address: Address, page_index: int) -> None:
        """Issue a code-page query flagged as prefetch (same wire shape)."""
        self._query("prefetch", paging.code_page_key(address, page_index))

    def dummy_query(self) -> None:
        """One padding access to a reserved page (extension feature).

        Used by the query-count padding countermeasure: physically
        indistinguishable from any other page access.
        """
        self._query("prefetch", b"\xffpadding-page")

    # ------------------------------------------------------------------
    # Block synchronization (write path)
    # ------------------------------------------------------------------

    def sync_account(self, address: Address, account: Account) -> int:
        """Write one account's pages into the ORAM; returns page count."""
        return self._write_pages(
            address, len(account.code), paging.account_pages(address, account)
        )

    def _write_pages(
        self, address: Address, code_size: int, pages: list[tuple[bytes, bytes]]
    ) -> int:
        now = self._clock()
        for page_key, page in pages:
            self._client.write(page_key, page, sim_time_us=now)
        self._code_sizes[address] = code_size
        return len(pages)

    def sync_delta(
        self,
        address: Address,
        meta: AccountMeta,
        slots: dict[int, int],
        code: bytes | None,
    ) -> int:
        """Apply one account's verified block delta; returns page count.

        One oblivious access per changed page, each a read-modify-write:
        the account page (``meta.code_size`` is ignored: the size held
        is kept while the code hash is the one held), every storage
        group holding a changed slot (0 clears it), and the code pages
        only under a new code hash.  A new, non-empty hash without
        ``code`` raises :class:`MissingCodeError` after the account-page
        access put back what it read, so nothing of the delta is written.
        """
        now = self._clock()
        code_size: int | None = None
        fresh_code = b""  # paged in only under a new code hash

        def account_page(page: bytes | None) -> bytes | None:
            nonlocal code_size, fresh_code
            held = paging.decode_account_page(page)
            if meta.code_hash == held.code_hash:
                code_size = held.code_size
            elif meta.code_hash == EMPTY_CODE_HASH:
                code_size = 0
            elif code is not None:
                code_size, fresh_code = len(code), code
            else:
                return None
            return paging.encode_account_page(
                AccountMeta(meta.balance, meta.nonce, meta.code_hash, code_size)
            )

        self._client.access(
            paging.account_page_key(address), sim_time_us=now, modify=account_page
        )
        if code_size is None:
            raise MissingCodeError(
                f"account {address.hex()} has a new code hash and no code"
            )
        groups: dict[bytes, dict[int, int]] = {}
        for key in sorted(slots):
            groups.setdefault(paging.storage_page_key(address, key), {})[key] = slots[key]
        for page_key, changed in groups.items():
            self._client.access(
                page_key,
                sim_time_us=now,
                modify=partial(paging.patch_storage_page, slots=changed),
            )
        return 1 + len(groups) + self._write_pages(
            address, code_size, paging.code_pages(address, fresh_code)
        )

    def sync_world(self, accounts: dict[Address, Account]) -> int:
        """Bulk-load a whole committed world state; returns page count."""
        total = 0
        for address, account in accounts.items():
            total += self.sync_account(address, account)
        return total
