"""Transaction-level execution: validation, intrinsic gas, fees, traces.

:func:`execute_transaction` is the single entry point used by the node
(block execution and ground-truth traces), the Geth baseline, and the
HarDTAPE HEVM.  It returns a :class:`TransactionResult` carrying exactly
the per-transaction trace content the paper's tracer sends to the user:
ReturnData, gas cost, balance transfers, and storage modifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evm import gas as gas_rules
from repro.evm.exceptions import InvalidTransaction
from repro.evm.frame import Log, Message
from repro.evm.interpreter import ChainContext, Interpreter
from repro.evm.tracer import Tracer
from repro.state.account import Address, to_address
from repro.state.blocks import Transaction
from repro.state.journal import JournaledState, WriteSet
from repro.rlp import codec as rlp
from repro.crypto.keccak import keccak256


@dataclass
class TransactionResult:
    """The trace of one pre-executed (or executed) transaction."""

    success: bool
    gas_used: int
    return_data: bytes
    error: str | None = None
    logs: list[Log] = field(default_factory=list)
    write_set: WriteSet = field(default_factory=WriteSet)
    created_address: Address | None = None

    @property
    def status(self) -> int:
        return 1 if self.success else 0


def execute_transaction(
    state: JournaledState,
    chain: ChainContext,
    tx: Transaction,
    tracer: Tracer | None = None,
    charge_fees: bool = True,
    check_nonce: bool = True,
) -> TransactionResult:
    """Validate and execute ``tx`` against ``state``.

    Mutations are applied to the journal (committed within the bundle);
    the caller decides whether to persist them (block execution) or
    discard them (pre-execution, paper workflow step 10).
    """
    state.begin_transaction()
    is_create = tx.to is None
    intrinsic = gas_rules.intrinsic_gas(tx.data, is_create)
    if intrinsic > tx.gas_limit:
        raise InvalidTransaction(
            f"intrinsic gas {intrinsic} exceeds limit {tx.gas_limit}"
        )

    sender_nonce = state.get_nonce(tx.sender)
    if check_nonce and tx.nonce is not None and tx.nonce != sender_nonce:
        raise InvalidTransaction(
            f"nonce mismatch: tx {tx.nonce}, account {sender_nonce}"
        )

    upfront = tx.value + (tx.gas_limit * tx.gas_price if charge_fees else 0)
    if state.get_balance(tx.sender) < upfront:
        raise InvalidTransaction("insufficient balance for value + gas")

    if charge_fees:
        state.sub_balance(tx.sender, tx.gas_limit * tx.gas_price)

    vm = Interpreter(state, chain, tracer, origin=tx.sender, gas_price=tx.gas_price)
    gas_available = tx.gas_limit - intrinsic

    # Warm the sender, the target, and the coinbase (EIP-2929/3651).
    state.warm_address(tx.sender)
    state.warm_address(chain.header.coinbase)

    created: Address | None = None
    if is_create:
        nonce = state.get_nonce(tx.sender)
        created = to_address(
            keccak256(rlp.encode([tx.sender, rlp.encode_uint(nonce)]))
        )
        message = Message(
            caller=tx.sender, to=created, code_address=created,
            value=tx.value, data=b"", gas=gas_available, is_create=True,
        )
        result = vm.execute_create(message, tx.data)
    else:
        state.warm_address(tx.to)
        state.increment_nonce(tx.sender)
        message = Message(
            caller=tx.sender, to=tx.to, code_address=tx.to,
            value=tx.value, data=tx.data, gas=gas_available,
        )
        result = vm.execute_message(message)

    gas_used = tx.gas_limit - result.gas_left
    if result.success:
        refund = min(state.refund, gas_used // gas_rules.REFUND_QUOTIENT)
        gas_used -= refund
    if charge_fees:
        state.add_balance(tx.sender, (tx.gas_limit - gas_used) * tx.gas_price)
        state.add_balance(chain.header.coinbase, gas_used * tx.gas_price)

    return TransactionResult(
        success=result.success,
        gas_used=gas_used,
        return_data=result.output,
        error=result.error,
        logs=[Log(addr, topics, data) for addr, topics, data in vm.logs],
        write_set=state.write_set(),
        created_address=created if (is_create and result.success) else None,
    )
