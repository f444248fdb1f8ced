"""The full node's authenticated world state (MPT-backed).

:class:`WorldState` is a :class:`~repro.state.backend.StateBackend` that
additionally maintains the Merkle Patricia Tries so it can report state
roots and serve Merkle proofs — the role the paper's (SP-controlled)
Node plays during block synchronization.
"""

from __future__ import annotations

from repro.rlp import codec as rlp
from repro.crypto.keccak import keccak256
from repro.state.account import Account, AccountMeta, Address
from repro.state.backend import DictBackend
from repro.trie.mpt import MerklePatriciaTrie, verify_proof
from dataclasses import dataclass


@dataclass(frozen=True)
class ProvenAccount:
    """An account record authenticated by a Merkle proof."""

    meta: AccountMeta
    storage_root: bytes


class WorldState(DictBackend):
    """Accounts plus on-demand trie commitment and proofs."""

    def __init__(self, accounts: dict[Address, Account] | None = None) -> None:
        super().__init__(accounts)
        # Built on demand; the trie keeps its own root commitment.
        self._account_trie: MerklePatriciaTrie | None = None
        # Storage tries of the accounts proven since the last mutation:
        # one build serves every slot proof of that account.
        self._storage_tries: dict[Address, MerklePatriciaTrie] = {}

    # -- commitment ----------------------------------------------------

    def _invalidate(self) -> None:
        self._account_trie = None
        self._storage_tries = {}

    def ensure(self, address: Address) -> Account:
        self._invalidate()
        return super().ensure(address)

    def apply_writes(self, *args, **kwargs) -> None:  # type: ignore[override]
        self._invalidate()
        super().apply_writes(*args, **kwargs)

    def _committed_trie(self) -> MerklePatriciaTrie:
        trie = self._account_trie
        if trie is None:
            trie = MerklePatriciaTrie()
            for address, account in self.accounts.items():
                if not account.is_empty:
                    trie.put(keccak256(address), account.rlp_encode())
            self._account_trie = trie
        return trie

    def commit(self) -> bytes:
        """Build the account trie and return the state root."""
        return self._committed_trie().root_hash()

    # -- proofs (A6 defense surface) ------------------------------------

    def prove_account(self, address: Address) -> list[bytes]:
        """Merkle proof for the account record under the current root."""
        return self._committed_trie().prove(keccak256(address))

    def prove_storage(self, address: Address, key: int) -> list[bytes]:
        """Merkle proof for one storage slot under the account's root."""
        trie = self._storage_tries.get(address)
        if trie is None:
            account = self.accounts.get(address, Account())
            trie = self._storage_tries[address] = account.storage_trie()
        return trie.prove(keccak256(key.to_bytes(32, "big")))

    @staticmethod
    def verify_account_proof(
        state_root: bytes, address: Address, proof: list[bytes]
    ) -> "ProvenAccount | None":
        """Verify an account proof; returns the proven record or None.

        Raises :class:`repro.trie.ProofError` on forgery, the check that
        blocks attack A6 during block synchronization.
        """
        encoded = verify_proof(state_root, keccak256(address), proof)
        if encoded is None:
            return None
        nonce_b, balance_b, storage_root, code_hash = rlp.decode(encoded)  # type: ignore[misc]
        meta = AccountMeta(
            balance=rlp.decode_uint(bytes(balance_b)),
            nonce=rlp.decode_uint(bytes(nonce_b)),
            code_hash=bytes(code_hash),
            code_size=-1,  # not part of the on-chain record
        )
        return ProvenAccount(meta, bytes(storage_root))

    @staticmethod
    def verify_storage_proof(
        storage_root: bytes, key: int, proof: list[bytes]
    ) -> int:
        """Verify a storage proof; returns the proven value (0 if absent)."""
        encoded = verify_proof(
            storage_root, keccak256(key.to_bytes(32, "big")), proof
        )
        if encoded is None:
            return 0
        decoded = rlp.decode(encoded)
        return rlp.decode_uint(bytes(decoded))  # type: ignore[arg-type]

    def storage_root_of(self, address: Address) -> bytes:
        account = self.accounts.get(address, Account())
        return account.storage_root()

    def copy(self) -> "WorldState":
        return WorldState(
            {address: account.copy() for address, account in self.accounts.items()}
        )
