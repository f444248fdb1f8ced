"""Journaled state overlay: per-transaction mutable world-state view.

The EVM executes against a :class:`JournaledState` layered over a
read-only :class:`~repro.state.backend.StateBackend`.  Mutations are
buffered; :meth:`snapshot`/:meth:`revert` implement the frame semantics
of CALL/REVERT (paper §II-A: "world state modifications are discarded or
committed depending on whether the transaction is reverted").

It also tracks EIP-2929 warm/cold access sets (which feed dynamic gas)
and gas refunds.  Pre-execution never persists: the service reads the
final write set out of the journal for the user's trace report and then
drops it (paper workflow step 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.state.account import AccountMeta, Address, EMPTY_CODE_HASH
from repro.state.backend import StateBackend
from repro.crypto.keccak import keccak256


@dataclass
class WriteSet:
    """The committed effects of a pre-executed transaction."""

    balances: dict[Address, int] = field(default_factory=dict)
    nonces: dict[Address, int] = field(default_factory=dict)
    storage: dict[tuple[Address, int], int] = field(default_factory=dict)
    codes: dict[Address, bytes] = field(default_factory=dict)
    deleted: set[Address] = field(default_factory=set)


class JournaledState:
    """Mutable overlay with O(1) snapshot/revert via an undo journal."""

    def __init__(self, backend: StateBackend) -> None:
        self._backend = backend
        self._balances: dict[Address, int] = {}
        self._nonces: dict[Address, int] = {}
        self._storage: dict[tuple[Address, int], int] = {}
        self._codes: dict[Address, bytes] = {}
        self._deleted: set[Address] = set()
        # Undo journal: (kind, key, previous_value) entries.
        self._journal: list[tuple[str, Any, Any]] = []
        # EIP-2929 access sets (transaction scoped, revert-protected).
        self._warm_addresses: set[Address] = set()
        self._warm_slots: set[tuple[Address, int]] = set()
        self.refund: int = 0
        # Original (pre-transaction) storage values for SSTORE pricing.
        self._original_storage: dict[tuple[Address, int], int] = {}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get_balance(self, address: Address) -> int:
        if address in self._deleted and address not in self._balances:
            return 0
        if address in self._balances:
            return self._balances[address]
        return self._backend.get_meta(address).balance

    def get_nonce(self, address: Address) -> int:
        if address in self._deleted and address not in self._nonces:
            return 0
        if address in self._nonces:
            return self._nonces[address]
        return self._backend.get_meta(address).nonce

    def get_code(self, address: Address) -> bytes:
        if address in self._codes:
            return self._codes[address]
        if address in self._deleted:
            return b""
        return self._backend.get_code(address)

    def get_code_size(self, address: Address) -> int:
        if address in self._codes:
            return len(self._codes[address])
        if address in self._deleted:
            return 0
        return self._backend.get_meta(address).code_size

    def get_code_hash(self, address: Address) -> bytes:
        code = self.get_code(address)
        if code:
            return keccak256(code)
        if self.account_exists(address):
            return EMPTY_CODE_HASH
        return b"\x00" * 32  # EXTCODEHASH of a non-existent account is 0.

    def get_storage(self, address: Address, key: int) -> int:
        slot = (address, key)
        if slot in self._storage:
            return self._storage[slot]
        if address in self._deleted:
            return 0
        if address in self._codes:
            # Deployed within this bundle: storage starts empty.
            return 0
        return self._backend.get_storage(address, key)

    def get_original_storage(self, address: Address, key: int) -> int:
        """Value at transaction start (for EIP-2200 SSTORE pricing)."""
        slot = (address, key)
        if slot in self._original_storage:
            return self._original_storage[slot]
        return self._backend.get_storage(address, key)

    def account_exists(self, address: Address) -> bool:
        if address in self._deleted:
            return False
        if (
            address in self._balances
            or address in self._nonces
            or address in self._codes
        ):
            return (
                self.get_balance(address) != 0
                or self.get_nonce(address) != 0
                or bool(self.get_code(address))
            )
        return self._backend.get_meta(address).exists

    def meta(self, address: Address) -> AccountMeta:
        """Current overlay view of the account header."""
        code = self.get_code(address)
        return AccountMeta(
            self.get_balance(address),
            self.get_nonce(address),
            keccak256(code) if code else EMPTY_CODE_HASH,
            len(code),
        )

    # ------------------------------------------------------------------
    # Writes (journaled)
    # ------------------------------------------------------------------

    def set_balance(self, address: Address, value: int) -> None:
        previous = self._balances.get(address)
        self._journal.append(("balance", address, previous))
        self._balances[address] = value

    def add_balance(self, address: Address, delta: int) -> None:
        self.set_balance(address, self.get_balance(address) + delta)

    def sub_balance(self, address: Address, delta: int) -> None:
        balance = self.get_balance(address)
        if balance < delta:
            raise ValueError("insufficient balance")
        self.set_balance(address, balance - delta)

    def set_nonce(self, address: Address, value: int) -> None:
        previous = self._nonces.get(address)
        self._journal.append(("nonce", address, previous))
        self._nonces[address] = value

    def increment_nonce(self, address: Address) -> None:
        self.set_nonce(address, self.get_nonce(address) + 1)

    def set_code(self, address: Address, code: bytes) -> None:
        previous = self._codes.get(address)
        self._journal.append(("code", address, previous))
        self._codes[address] = code

    def set_storage(self, address: Address, key: int, value: int) -> None:
        slot = (address, key)
        if slot not in self._original_storage:
            self._original_storage[slot] = self._backend.get_storage(address, key)
        previous = self._storage.get(slot)
        self._journal.append(("storage", slot, previous))
        self._storage[slot] = value

    def delete_account(self, address: Address) -> None:
        """SELFDESTRUCT: mark for deletion at transaction end."""
        if address in self._deleted:
            return
        self._journal.append(("delete", address, None))
        self._deleted.add(address)

    def add_refund(self, amount: int) -> None:
        self._journal.append(("refund", None, self.refund))
        self.refund += amount

    def sub_refund(self, amount: int) -> None:
        self._journal.append(("refund", None, self.refund))
        self.refund -= amount

    # ------------------------------------------------------------------
    # Warm/cold access tracking (EIP-2929)
    # ------------------------------------------------------------------

    def warm_address(self, address: Address) -> bool:
        """Mark warm; returns True if it was already warm."""
        if address in self._warm_addresses:
            return True
        self._journal.append(("warm_addr", address, None))
        self._warm_addresses.add(address)
        return False

    def warm_slot(self, address: Address, key: int) -> bool:
        """Mark a storage slot warm; returns True if already warm."""
        slot = (address, key)
        if slot in self._warm_slots:
            return True
        self._journal.append(("warm_slot", slot, None))
        self._warm_slots.add(slot)
        return False

    def is_warm_address(self, address: Address) -> bool:
        return address in self._warm_addresses

    # ------------------------------------------------------------------
    # Snapshot / revert
    # ------------------------------------------------------------------

    def snapshot(self) -> int:
        """Return a snapshot id for a later :meth:`revert`."""
        return len(self._journal)

    def revert(self, snapshot_id: int) -> None:
        """Undo all mutations made after ``snapshot_id``."""
        while len(self._journal) > snapshot_id:
            kind, key, previous = self._journal.pop()
            if kind == "balance":
                self._restore(self._balances, key, previous)
            elif kind == "nonce":
                self._restore(self._nonces, key, previous)
            elif kind == "code":
                self._restore(self._codes, key, previous)
            elif kind == "storage":
                self._restore(self._storage, key, previous)
            elif kind == "delete":
                self._deleted.discard(key)
            elif kind == "refund":
                self.refund = previous
            elif kind == "warm_addr":
                self._warm_addresses.discard(key)
            elif kind == "warm_slot":
                self._warm_slots.discard(key)
            else:
                raise AssertionError(f"unknown journal entry {kind}")

    @staticmethod
    def _restore(mapping: dict, key: Any, previous: Any) -> None:
        if previous is None:
            mapping.pop(key, None)
        else:
            mapping[key] = previous

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def write_set(self) -> WriteSet:
        """The transaction's net effect (what the trace reports)."""
        return WriteSet(
            balances=dict(self._balances),
            nonces=dict(self._nonces),
            storage=dict(self._storage),
            codes=dict(self._codes),
            deleted=set(self._deleted),
        )

    def begin_transaction(self) -> None:
        """Reset per-transaction scratch (access sets, refunds, originals).

        Buffered writes persist across transactions within a bundle so
        later transactions see earlier ones' effects (paper §II-A).
        """
        self._warm_addresses = set()
        self._warm_slots = set()
        self.refund = 0
        self._original_storage = {}
        self._journal = []
