"""World-state substrate: accounts, journaled overlays, blocks, backends."""

from repro.state.account import (
    Account,
    AccountMeta,
    Address,
    EMPTY_CODE_HASH,
    EMPTY_META,
    WORD,
    to_address,
)
from repro.state.backend import (
    CODE_PAGE_SIZE,
    DictBackend,
    STORAGE_GROUP_SIZE,
    StateBackend,
)
from repro.state.blocks import Block, BlockHeader, Transaction
from repro.state.journal import JournaledState, WriteSet
from repro.state.world import ProvenAccount, WorldState

__all__ = [
    "Account",
    "AccountMeta",
    "Address",
    "Block",
    "BlockHeader",
    "CODE_PAGE_SIZE",
    "DictBackend",
    "EMPTY_CODE_HASH",
    "EMPTY_META",
    "JournaledState",
    "STORAGE_GROUP_SIZE",
    "StateBackend",
    "ProvenAccount",
    "Transaction",
    "WORD",
    "WorldState",
    "WriteSet",
    "to_address",
]
