"""State backends: where committed world state is read from.

The EVM core sees the committed world state through the
:class:`StateBackend` protocol.  Implementations:

* :class:`DictBackend` — plain in-memory mapping (Geth baseline, tests).
* :class:`repro.oram.adapter.ObliviousStateBackend` — the HarDTAPE path:
  every read becomes fixed-size Path ORAM page queries.
* :class:`repro.state.world.WorldState` — the full node's authenticated
  store (MPT-backed, serves Merkle proofs).

Code reads are exposed both whole (``get_code``) and paged
(``get_code_page``): HarDTAPE splits bytecode into ``CODE_PAGE_SIZE``
*blocks* so code and storage queries are indistinguishable (paper §IV-D).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.state.account import Account, AccountMeta, Address, EMPTY_META

CODE_PAGE_SIZE = 1024  # 1 KB ORAM *blocks*, per the paper.
STORAGE_GROUP_SIZE = 32  # 32 consecutive 32-byte records per 1 KB block.


@runtime_checkable
class StateBackend(Protocol):
    """Read-only view of a committed world state version."""

    def get_meta(self, address: Address) -> AccountMeta:
        """Fetch the account header (balance, nonce, code hash/size)."""
        ...

    def get_storage(self, address: Address, key: int) -> int:
        """Fetch one 256-bit storage record (0 when absent)."""
        ...

    def get_code_page(self, address: Address, page_index: int) -> bytes:
        """Fetch one 1 KB code page (zero-padded at the tail)."""
        ...

    def get_code(self, address: Address) -> bytes:
        """Fetch the full bytecode."""
        ...


class DictBackend:
    """Committed state held in a plain dict of :class:`Account`."""

    def __init__(self, accounts: dict[Address, Account] | None = None) -> None:
        self.accounts: dict[Address, Account] = accounts or {}

    def get_meta(self, address: Address) -> AccountMeta:
        account = self.accounts.get(address)
        if account is None:
            return EMPTY_META
        return AccountMeta(
            account.balance, account.nonce, account.code_hash, len(account.code)
        )

    def get_storage(self, address: Address, key: int) -> int:
        account = self.accounts.get(address)
        if account is None:
            return 0
        return account.storage.get(key, 0)

    def get_code_page(self, address: Address, page_index: int) -> bytes:
        code = self.get_code(address)
        page = code[page_index * CODE_PAGE_SIZE:(page_index + 1) * CODE_PAGE_SIZE]
        return page.ljust(CODE_PAGE_SIZE, b"\x00")

    def get_code(self, address: Address) -> bytes:
        account = self.accounts.get(address)
        return account.code if account else b""

    # Mutation helpers for test/workload setup.

    def ensure(self, address: Address) -> Account:
        """Get or create the account at ``address``."""
        account = self.accounts.get(address)
        if account is None:
            account = Account()
            self.accounts[address] = account
        return account

    def apply_writes(
        self,
        balances: dict[Address, int],
        nonces: dict[Address, int],
        storage: dict[tuple[Address, int], int],
        codes: dict[Address, bytes],
        deleted: set[Address] = frozenset(),
    ) -> None:
        """Apply a committed transaction's write set."""
        for address, balance in balances.items():
            self.ensure(address).balance = balance
        for address, nonce in nonces.items():
            self.ensure(address).nonce = nonce
        for (address, key), value in storage.items():
            slot = self.ensure(address).storage
            if value:
                slot[key] = value
            else:
                slot.pop(key, None)
        for address, code in codes.items():
            self.ensure(address).code = code
        for address in deleted:
            self.accounts.pop(address, None)
