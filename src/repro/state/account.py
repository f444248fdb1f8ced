"""Account model and canonical Ethereum encodings."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rlp import codec as rlp
from repro.crypto.keccak import keccak256
from repro.trie.mpt import MerklePatriciaTrie

# keccak256(b"") — the code hash of every non-contract account.
EMPTY_CODE_HASH = keccak256(b"")

Address = bytes  # 20 bytes
StorageKey = int  # 256-bit
StorageValue = int  # 256-bit

WORD = 2**256


def to_address(value: int | bytes) -> Address:
    """Normalize an int or bytes into a 20-byte address."""
    if isinstance(value, int):
        return (value % 2**160).to_bytes(20, "big")
    if len(value) > 20:
        return bytes(value[-20:])
    return bytes(value).rjust(20, b"\x00")


@dataclass
class Account:
    """A mutable world-state account.

    ``storage`` maps 256-bit keys to 256-bit values; zero-valued slots
    are treated as absent, matching Ethereum semantics.

    The code hash is account state, as ``codeHash`` is in Ethereum's
    account record: hashed the first time it is asked for and kept
    beside the code object it was derived from, so a reassigned
    ``code`` is re-hashed and an unchanged one never is.  ``copy()`` and
    ``deepcopy`` carry it.
    """

    balance: int = 0
    nonce: int = 0
    code: bytes = b""
    storage: dict[StorageKey, StorageValue] = field(default_factory=dict)
    # ``(code, keccak256(code))`` for the code last hashed.
    _hashed_code: tuple[bytes, bytes] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def code_hash(self) -> bytes:
        code = self.code
        if not code:
            return EMPTY_CODE_HASH
        hashed = self._hashed_code
        # bytes equality is an identity check first, a memcmp after.
        if hashed is None or hashed[0] != code:
            hashed = self._hashed_code = (bytes(code), keccak256(code))
        return hashed[1]

    @property
    def is_empty(self) -> bool:
        """EIP-161 emptiness: no balance, no nonce, no code."""
        return self.balance == 0 and self.nonce == 0 and not self.code

    def copy(self) -> "Account":
        clone = Account(self.balance, self.nonce, self.code, dict(self.storage))
        clone._hashed_code = self._hashed_code
        return clone

    def storage_trie(self) -> MerklePatriciaTrie:
        """Build the storage trie (secure trie: hashed keys, no zero slots)."""
        trie = MerklePatriciaTrie()
        for key, value in self.storage.items():
            if value:
                trie.put(
                    keccak256(key.to_bytes(32, "big")),
                    rlp.encode(rlp.encode_uint(value)),
                )
        return trie

    def storage_root(self) -> bytes:
        """Compute the storage trie root."""
        return self.storage_trie().root_hash()

    def rlp_encode(self) -> bytes:
        """RLP account record: [nonce, balance, storage_root, code_hash]."""
        return rlp.encode(
            [
                rlp.encode_uint(self.nonce),
                rlp.encode_uint(self.balance),
                self.storage_root(),
                self.code_hash,
            ]
        )


@dataclass(frozen=True)
class AccountMeta:
    """The fixed-size account header HarDTAPE fetches as a K-V query."""

    balance: int
    nonce: int
    code_hash: bytes
    code_size: int

    @property
    def exists(self) -> bool:
        return (
            self.balance != 0
            or self.nonce != 0
            or self.code_hash != EMPTY_CODE_HASH
        )


EMPTY_META = AccountMeta(0, 0, EMPTY_CODE_HASH, 0)
