"""Block synchronization (workflow step 11, paper §IV-C remark).

When new blocks appear on-chain, HarDTAPE fetches the touched world
state from the (SP-controlled, untrusted) Node, verifies **Merkle
proofs against the block's state root** — the only place proofs are ever
checked — and writes the verified pages into the ORAM.  From then on,
AES-GCM inside the ORAM protects integrity, so pre-execution queries
need no proofs (less overhead, no proof-shaped leakage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.keccak import keccak256
from repro.oram.adapter import ObliviousStateBackend
from repro.state.account import Account, Address
from repro.state.world import WorldState
from repro.trie import ProofError


class SyncError(Exception):
    """The Node served data that fails Merkle verification (attack A6)."""


@dataclass
class AccountUpdate:
    """One account's post-block state plus its authenticating proofs."""

    address: Address
    account: Account
    account_proof: list[bytes]
    storage_proofs: dict[int, list[bytes]] = field(default_factory=dict)


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

        Raises :class:`SyncError` on the first proof failure, writing
        nothing from the offending update.
        """
        if self.faults is not None:
            now = self._clock.now_us if self._clock is not None else 0.0
            state_root = self.faults.on_sync_root(state_root, now)
        pages = 0
        for update in updates:
            self._verify_update(state_root, update)
            proof_nodes = len(update.account_proof) + sum(
                len(proof) for proof in update.storage_proofs.values()
            )
            if self._cost is not None:
                # ~12 µs of ARM hashing per proof node (keccak over ≤532 B).
                self._charge(12.0 * max(proof_nodes, 1))
            written = self._oram.sync_account(update.address, update.account)
            if self._cost is not None:
                self._charge(self._oram.access_cost_us(self._cost) * written)
            pages += written
            self.stats.accounts_verified += 1
        self.stats.blocks_synced += 1
        self.stats.pages_written += pages
        return pages

    def _verify_update(self, state_root: bytes, update: AccountUpdate) -> None:
        try:
            proven = WorldState.verify_account_proof(
                state_root, update.address, update.account_proof
            )
        except ProofError as exc:
            self.stats.proofs_rejected += 1
            raise SyncError(f"account proof invalid: {exc}") from exc
        if proven is None:
            # Valid non-membership: the account must actually be empty.
            if not update.account.is_empty:
                self.stats.proofs_rejected += 1
                raise SyncError("node claims data for a non-existent account")
            return
        if (
            proven.meta.balance != update.account.balance
            or proven.meta.nonce != update.account.nonce
            or proven.meta.code_hash != update.account.code_hash
        ):
            self.stats.proofs_rejected += 1
            raise SyncError("account fields do not match the proven record")
        if update.account.code and keccak256(update.account.code) != proven.meta.code_hash:
            self.stats.proofs_rejected += 1
            raise SyncError("bytecode does not match the proven code hash")
        storage_root = update.account.storage_root()
        if storage_root != proven.storage_root:
            self.stats.proofs_rejected += 1
            raise SyncError("storage contents do not match the proven storage root")
        for key, proof in update.storage_proofs.items():
            try:
                proven_value = WorldState.verify_storage_proof(
                    storage_root, key, proof
                )
            except ProofError as exc:
                self.stats.proofs_rejected += 1
                raise SyncError(f"storage proof invalid for key {key}: {exc}") from exc
            if proven_value != update.account.storage.get(key, 0):
                self.stats.proofs_rejected += 1
                raise SyncError(f"storage value mismatch for key {key}")
            self.stats.storage_slots_verified += 1
