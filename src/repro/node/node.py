"""A simulated Ethereum full node.

Plays two roles from the paper:

* the **Node** in the HarDTAPE deployment — SP-controlled, serving fresh
  on-chain data with Merkle proofs during block synchronization, and
* the **ground truth** of §VI-B — a standard node whose
  ``debug_traceTransaction`` output HarDTAPE traces must match.

The node executes blocks with the same functional EVM, keeps one
committed :class:`~repro.state.world.WorldState` snapshot per block so
historical versions can be queried, and serves account/storage proofs
against any block's state root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evm.executor import TransactionResult, execute_transaction
from repro.evm.interpreter import ChainContext
from repro.evm.tracer import StructLog, StructTracer
from repro.hypervisor.sync import AccountUpdate
from repro.state.account import Account, Address, to_address
from repro.state.blocks import Block, BlockHeader, Transaction
from repro.state.journal import JournaledState
from repro.state.world import WorldState


@dataclass
class ExecutedBlock:
    """A sealed block plus its execution artefacts."""

    block: Block
    results: list[TransactionResult]
    pre_state: WorldState
    post_state: WorldState
    touched_accounts: set[Address] = field(default_factory=set)
    # The block's sync delta, from its write sets: per account the
    # storage keys whose value the block changed (every key it held, for
    # a self-destructed one), and the accounts whose code it changed.
    changed_slots: dict[Address, set[int]] = field(default_factory=dict)
    changed_code: set[Address] = field(default_factory=set)


class EthereumNode:
    """Chain + state + trace/proof RPC surface."""

    def __init__(
        self,
        genesis_accounts: dict[Address, Account] | None = None,
        chain_id: int = 1,
        coinbase: Address = to_address(0xC0FFEE),
    ) -> None:
        self.chain_id = chain_id
        self.coinbase = coinbase
        self.block_interval_s = 12  # Ethereum's slot time
        genesis_state = WorldState(
            {addr: acct.copy() for addr, acct in (genesis_accounts or {}).items()}
        )
        genesis_header = BlockHeader(
            number=0,
            parent_hash=b"\x00" * 32,
            state_root=genesis_state.commit(),
            timestamp=1_700_000_000,
            coinbase=coinbase,
            chain_id=chain_id,
        )
        self._blocks: list[ExecutedBlock] = [
            ExecutedBlock(
                block=Block(genesis_header, []),
                results=[],
                pre_state=genesis_state.copy(),
                post_state=genesis_state,
            )
        ]
        self._block_hashes: dict[int, bytes] = {0: genesis_header.block_hash()}

    # ------------------------------------------------------------------
    # Chain growth
    # ------------------------------------------------------------------

    @property
    def latest(self) -> ExecutedBlock:
        return self._blocks[-1]

    @property
    def height(self) -> int:
        return self.latest.block.number

    def state_at(self, block_number: int) -> WorldState:
        """The committed world state *after* executing ``block_number``."""
        return self.block_at(block_number).post_state

    def block_at(self, number: int) -> ExecutedBlock:
        """The executed block at ``number`` (0 = genesis)."""
        if not 0 <= number < len(self._blocks):
            raise KeyError(f"unknown block {number}")
        return self._blocks[number]

    def chain_context(self, header: BlockHeader) -> ChainContext:
        return ChainContext(header, dict(self._block_hashes))

    def add_block(self, transactions: list[Transaction]) -> ExecutedBlock:
        """Execute and seal a new block on the tip."""
        parent = self.latest
        header = BlockHeader(
            number=parent.block.number + 1,
            parent_hash=parent.block.block_hash(),
            state_root=b"\x00" * 32,  # filled after execution
            timestamp=parent.block.header.timestamp + self.block_interval_s,
            coinbase=self.coinbase,
            chain_id=self.chain_id,
        )
        pre_state = parent.post_state.copy()
        working = parent.post_state.copy()
        chain = self.chain_context(header)
        results: list[TransactionResult] = []
        touched: set[Address] = set()
        written_slots: set[tuple[Address, int]] = set()
        written_code: set[Address] = set()
        for tx in transactions:
            journal = JournaledState(working)
            result = execute_transaction(journal, chain, tx)
            results.append(result)
            write_set = result.write_set
            written_slots.update(write_set.storage)
            written_code.update(write_set.codes)
            for address in write_set.deleted:  # SELFDESTRUCT clears all it held
                held = working.accounts.get(address, Account()).storage
                written_slots.update((address, key) for key in held)
            working.apply_writes(
                write_set.balances,
                write_set.nonces,
                write_set.storage,
                write_set.codes,
                write_set.deleted,
            )
            touched.update(write_set.balances)
            touched.update(write_set.nonces)
            touched.update(addr for addr, _ in write_set.storage)
            touched.update(write_set.codes)
            touched.update(write_set.deleted)
        sealed_header = BlockHeader(
            number=header.number,
            parent_hash=header.parent_hash,
            state_root=working.commit(),
            timestamp=header.timestamp,
            coinbase=header.coinbase,
            gas_limit=header.gas_limit,
            base_fee=header.base_fee,
            prev_randao=header.prev_randao,
            chain_id=header.chain_id,
        )
        changed_slots: dict[Address, set[int]] = {}
        for address, key in written_slots:
            if working.get_storage(address, key) != pre_state.get_storage(address, key):
                changed_slots.setdefault(address, set()).add(key)
        executed = ExecutedBlock(
            block=Block(sealed_header, list(transactions)),
            results=results,
            pre_state=pre_state,
            post_state=working,
            touched_accounts=touched,
            changed_slots=changed_slots,
            changed_code={
                address for address in written_code
                if working.get_code(address) != pre_state.get_code(address)
            },
        )
        self._blocks.append(executed)
        self._block_hashes[sealed_header.number] = sealed_header.block_hash()
        return executed

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------

    def debug_trace_transaction(
        self, block_number: int, tx_index: int, capture_stack: bool = True
    ) -> tuple[list[StructLog], TransactionResult]:
        """Re-execute a past transaction and return its struct trace.

        This is the quicknode ``debug_traceTransaction`` stand-in used
        as the §VI-B correctness ground truth.
        """
        executed = self.block_at(block_number)
        if not 0 <= tx_index < len(executed.block.transactions):
            raise KeyError(f"block {block_number} has no tx {tx_index}")
        working = executed.pre_state.copy()
        chain = self.chain_context(executed.block.header)
        transactions = executed.block.transactions
        for tx in transactions[:tx_index]:
            write_set = execute_transaction(
                JournaledState(working), chain, tx
            ).write_set
            working.apply_writes(
                write_set.balances,
                write_set.nonces,
                write_set.storage,
                write_set.codes,
                write_set.deleted,
            )
        tracer = StructTracer(capture_stack=capture_stack)
        result = execute_transaction(
            JournaledState(working), chain, transactions[tx_index], tracer=tracer
        )
        return tracer.logs, result

    def unified_trace(self, block_number: int, tx_index: int):
        """The committed :class:`~repro.telemetry.unified.UnifiedStepTrace`
        of a past transaction — ``debug_trace_transaction`` lifted into
        the canonical schema (same re-execution, stack capture off since
        the schema commits to pc/op/group/gas/depth only).
        """
        from repro.telemetry.unified import from_struct_logs

        logs, _ = self.debug_trace_transaction(
            block_number, tx_index, capture_stack=False
        )
        return from_struct_logs(logs)

    def get_proof(
        self, address: Address, storage_keys: list[int], block_number: int
    ) -> AccountUpdate:
        """eth_getProof: the account proof and the named slots, each with
        its value and proof, at a block."""
        state = self.state_at(block_number)
        return AccountUpdate(
            address=address,
            account_proof=state.prove_account(address),
            slots={key: state.get_storage(address, key) for key in storage_keys},
            storage_proofs={
                key: state.prove_storage(address, key) for key in storage_keys
            },
        )

    def sync_updates_for(self, block_number: int) -> list[AccountUpdate]:
        """What ``block_number`` changed, as a synchronizer ingests it:
        per touched account the slots it wrote and, if set, its code."""
        executed = self.block_at(block_number)
        updates = []
        for address in sorted(executed.touched_accounts):
            update = self.get_proof(
                address, sorted(executed.changed_slots.get(address, ())), block_number
            )
            if address in executed.changed_code:
                update.code = executed.post_state.get_code(address)
            updates.append(update)
        return updates
