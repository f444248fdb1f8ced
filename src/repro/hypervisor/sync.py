"""Block synchronization (workflow step 11, paper §IV-C remark).

When new blocks appear on-chain, HarDTAPE fetches what each block
changed from the (SP-controlled, untrusted) Node, verifies **Merkle
proofs against the block's state root** — the only place proofs are ever
checked — and writes the verified pages into the ORAM.  From then on,
AES-GCM inside the ORAM protects integrity, so pre-execution queries
need no proofs (less overhead, no proof-shaped leakage).

An update is a *delta*: the cost of a block is what it changed, not the
size of the accounts it touched.  What is checked is per-value
soundness — every value written authenticates under the block's root.
Completeness is not: a changed slot (like a touched account, or a whole
block) the Node withholds has no proof to fail, and is caught where
those are, by the receipt audit against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.keccak import keccak256
from repro.oram.adapter import MissingCodeError, ObliviousStateBackend
from repro.state.account import EMPTY_META, WORD, AccountMeta, Address
from repro.state.world import WorldState
from repro.trie.mpt import EMPTY_ROOT, ProofError


class SyncError(Exception):
    """The Node served data that fails Merkle verification (attack A6)."""


@dataclass
class AccountUpdate:
    """What one block changed in one account, with the proofs that pin it.

    ``account_proof`` authenticates the post-block account record (or
    its absence) under the block's state root.  ``slots`` maps every
    storage key the block wrote to its new value (0 = cleared), each
    proven in ``storage_proofs`` under the storage root that record
    carries.  ``code`` is the bytecode, shipped only when the block
    changed it.
    """

    address: Address
    account_proof: list[bytes]
    slots: dict[int, int] = field(default_factory=dict)
    storage_proofs: dict[int, list[bytes]] = field(default_factory=dict)
    code: bytes | None = None


@dataclass
class SyncStats:
    blocks_synced: int = 0
    accounts_verified: int = 0
    storage_slots_verified: int = 0
    pages_written: int = 0
    proofs_rejected: int = 0


class BlockSynchronizer:
    """Verifies Node-provided updates and writes them into the ORAM.

    When given a clock and cost model, it also charges simulated time:
    Merkle verification is ARM-side hashing (per proof node), and every
    page written is one Path ORAM access — the numbers behind the
    paper's claim that one device keeps up with block production.
    """

    def __init__(
        self,
        oram_backend: ObliviousStateBackend,
        clock=None,
        cost=None,
    ) -> None:
        self._oram = oram_backend
        self._clock = clock
        self._cost = cost
        self.stats = SyncStats()
        # Fault-injection seam (``repro.faults``): may substitute a
        # stale/forked state root for one apply, so the Merkle check
        # rejects the whole update set (attack A6 exercised on purpose).
        self.faults = None

    def _charge(self, amount_us: float) -> None:
        if self._clock is not None:
            self._clock.advance_us(amount_us)

    def apply_block(
        self, state_root: bytes, updates: list[AccountUpdate]
    ) -> int:
        """Verify and ingest one block's account updates.

        Raises :class:`SyncError` on the first update that fails a
        check, writing nothing from the offending update.
        """
        if self.faults is not None:
            now = self._clock.now_us if self._clock is not None else 0.0
            state_root = self.faults.on_sync_root(state_root, now)
        pages = 0
        seen: set[Address] = set()
        for update in updates:
            meta = self._verify_update(state_root, update)
            if update.address in seen:
                raise self._rejected("two updates for one account in a block")
            seen.add(update.address)
            proof_nodes = len(update.account_proof) + sum(
                len(proof) for proof in update.storage_proofs.values()
            )
            if self._cost is not None:
                # ~12 µs of ARM hashing per proof node (keccak over ≤532 B).
                self._charge(12.0 * max(proof_nodes, 1))
            try:
                written = self._oram.sync_delta(
                    update.address, meta, update.slots, update.code
                )
            except MissingCodeError as exc:
                raise self._rejected(str(exc)) from exc
            if self._cost is not None:
                self._charge(self._oram.access_cost_us(self._cost) * written)
            pages += written
            self.stats.accounts_verified += 1
        self.stats.blocks_synced += 1
        self.stats.pages_written += pages
        return pages

    def _rejected(self, reason: str) -> SyncError:
        self.stats.proofs_rejected += 1
        return SyncError(reason)

    def _verify_update(self, state_root: bytes, update: AccountUpdate) -> AccountMeta:
        """The proven account header, once every field of ``update``
        authenticates under ``state_root``."""
        if not _well_formed(update):
            raise self._rejected("malformed account update")
        try:
            proven = WorldState.verify_account_proof(
                state_root, update.address, update.account_proof
            )
        except ProofError as exc:
            raise self._rejected(f"account proof invalid: {exc}") from exc
        # Valid non-membership: the account is empty, and so is its storage.
        meta = proven.meta if proven is not None else EMPTY_META
        storage_root = proven.storage_root if proven is not None else EMPTY_ROOT
        if update.code is not None and keccak256(update.code) != meta.code_hash:
            raise self._rejected("bytecode does not match the proven code hash")
        for key, value in update.slots.items():
            try:
                proven_value = WorldState.verify_storage_proof(
                    storage_root, key, update.storage_proofs[key]
                )
            except ProofError as exc:
                raise self._rejected(
                    f"storage proof invalid for key {key}: {exc}"
                ) from exc
            if proven_value != value:
                raise self._rejected(f"storage value mismatch for key {key}")
            self.stats.storage_slots_verified += 1
        return meta


def _is_proof(proof: object) -> bool:
    return isinstance(proof, list) and all(isinstance(node, bytes) for node in proof)


def _well_formed(update: object) -> bool:
    """Every field has the type and range the checks below rely on, and
    the proofs name exactly the slots written."""
    return (
        isinstance(update, AccountUpdate)
        and isinstance(update.address, bytes)
        and len(update.address) == 20
        and _is_proof(update.account_proof)
        and isinstance(update.slots, dict)
        and isinstance(update.storage_proofs, dict)
        and update.slots.keys() == update.storage_proofs.keys()
        and all(
            type(key) is int and type(value) is int
            and 0 <= key < WORD and 0 <= value < WORD
            for key, value in update.slots.items()
        )
        and all(_is_proof(proof) for proof in update.storage_proofs.values())
        and (update.code is None or isinstance(update.code, bytes))
    )
