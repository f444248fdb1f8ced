"""Transaction, block, and chain-context datatypes."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rlp import codec as rlp
from repro.crypto.keccak import keccak256
from repro.state.account import Address


@dataclass(frozen=True)
class Transaction:
    """A (pre-)executable transaction.

    ``to is None`` means contract creation.  The simulation carries the
    sender explicitly instead of recovering it from a signature — user
    bundles are authenticated at the channel layer, matching the paper's
    use case where the bundle arrives over the attested secure channel.
    """

    sender: Address
    to: Address | None
    value: int = 0
    data: bytes = b""
    gas_limit: int = 30_000_000
    gas_price: int = 1
    nonce: int | None = None  # None: use the sender's current nonce.

    def tx_hash(self) -> bytes:
        """Identifier hash over the canonical RLP of the fields."""
        return keccak256(
            rlp.encode(
                [
                    self.sender,
                    self.to if self.to is not None else b"",
                    rlp.encode_uint(self.value),
                    self.data,
                    rlp.encode_uint(self.gas_limit),
                    rlp.encode_uint(self.gas_price),
                    rlp.encode_uint(self.nonce or 0),
                ]
            )
        )


@dataclass(frozen=True)
class BlockHeader:
    """Header fields the EVM exposes through BLOCK instructions."""

    number: int
    parent_hash: bytes
    state_root: bytes
    timestamp: int
    coinbase: Address
    gas_limit: int = 30_000_000
    base_fee: int = 10
    prev_randao: int = 0
    chain_id: int = 1

    def block_hash(self) -> bytes:
        return keccak256(
            rlp.encode(
                [
                    rlp.encode_uint(self.number),
                    self.parent_hash,
                    self.state_root,
                    rlp.encode_uint(self.timestamp),
                    self.coinbase,
                    rlp.encode_uint(self.gas_limit),
                    rlp.encode_uint(self.base_fee),
                    rlp.encode_uint(self.prev_randao),
                    rlp.encode_uint(self.chain_id),
                ]
            )
        )


@dataclass
class Block:
    """A sealed block: header plus ordered transactions."""

    header: BlockHeader
    transactions: list[Transaction] = field(default_factory=list)

    @property
    def number(self) -> int:
        return self.header.number

    def block_hash(self) -> bytes:
        return self.header.block_hash()
