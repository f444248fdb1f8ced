"""The TSC-VEE baseline (Jian et al., TPDS'23), modeled from its paper.

TSC-VEE runs a *single* Confidential Smart Contract inside TrustZone:
all of the contract's bytecode and storage records are prefetched into
secure memory before execution, so every access is local — but
cross-account contract calls are unsupported and the whole world state
cannot fit.  The model enforces both properties: it refuses transactions
whose call tree leaves the prefetched contract, and it times execution
with per-op costs close to the HEVM's (Figure 5 shows no significant
difference on local-hit workloads).
"""

from __future__ import annotations

from repro.baselines.geth import BaselineRun
from repro.evm.executor import execute_transaction
from repro.evm.interpreter import ChainContext
from repro.evm.tracer import CountingTracer, MultiTracer, Tracer
from repro.hardware.timing import CostModel
from repro.state.account import Address
from repro.state.backend import StateBackend
from repro.state.blocks import Transaction
from repro.state.journal import JournaledState


class UnsupportedContractCall(Exception):
    """TSC-VEE cannot call outside the prefetched contract."""


class _CallBoundaryTracer(Tracer):
    """Rejects frames whose code address leaves the allowed set."""

    def __init__(self, allowed: set[Address]) -> None:
        self._allowed = allowed

    def on_frame_enter(self, frame, kind: str) -> None:
        code_address = frame.message.code_address
        if code_address not in self._allowed:
            raise UnsupportedContractCall(
                f"TSC-VEE cannot execute foreign contract {code_address.hex()}"
            )


class TscVeeSimulator:
    """Single-contract TrustZone VEE with prefetch-everything semantics."""

    def __init__(
        self,
        backend: StateBackend,
        contract: Address,
        cost: CostModel | None = None,
    ) -> None:
        self._backend = backend
        self._cost = cost or CostModel()
        self.contract = contract
        # Precompiles stay callable; everything else is out of bounds.
        from repro.evm.precompiles import PRECOMPILES

        self._allowed = {contract} | set(PRECOMPILES)
        self._state = JournaledState(backend)
        self.prefetch_time_us = 1_200.0
        self._prefetched = False

    def execute(
        self,
        chain: ChainContext,
        tx: Transaction,
        charge_fees: bool = True,
    ) -> BaselineRun:
        if tx.to != self.contract and tx.to is not None:
            raise UnsupportedContractCall(
                "transaction does not target the prefetched contract"
            )
        counting = CountingTracer()
        sender_allowed = self._allowed | {tx.sender, tx.to or b""}
        boundary = _CallBoundaryTracer(sender_allowed)
        result = execute_transaction(
            self._state,
            chain,
            tx,
            tracer=MultiTracer(boundary, counting),
            charge_fees=charge_fees,
        )
        time_us = 0.0
        if not self._prefetched:
            time_us += self.prefetch_time_us  # one-time bytecode+storage load
            self._prefetched = True
        for group, count in counting.counts.by_group.items():
            time_us += self._cost.tscvee_instruction_us(group, count)
        return BaselineRun(result, time_us, dict(counting.counts.by_group))
