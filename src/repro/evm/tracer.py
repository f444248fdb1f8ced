"""Execution tracers.

The paper's on-chip *tracer* records the behaviour of pre-executed
transactions — ReturnData, gas cost, balance transfers, storage
modifications — and stores them until the bundle finishes (workflow step
9).  Three concrete tracers cover the repository's needs:

* :class:`StructTracer` — step-by-step PC / opcode / gas / stack logs,
  shaped like ``debug_traceTransaction`` output, used for the paper's
  correctness check (§VI-B) against the node's ground truth.
* :class:`CallTracer` — the call tree with per-frame footprints, feeding
  the Table I statistics.
* :class:`CountingTracer` — cheap per-group instruction counts and event
  tallies that drive the hardware timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evm import opcodes
from repro.evm.frame import CallRecord, ExecutionFrame, FrameFootprint
from repro.state.account import Address


class Tracer:
    """No-op base tracer; subclasses override the hooks they need."""

    def on_step(self, frame: ExecutionFrame, opcode: int) -> None:
        """Called before each instruction executes."""

    def on_frame_enter(self, frame: ExecutionFrame, kind: str) -> None:
        """Called when a new execution frame is pushed."""

    def on_frame_exit(self, frame: ExecutionFrame, kind: str, error: str | None) -> None:
        """Called when a frame completes (success, revert, or error)."""

    def on_storage_read(self, address: Address, key: int, value: int, cold: bool) -> None:
        """Called on SLOAD."""

    def on_storage_write(self, address: Address, key: int, value: int, cold: bool) -> None:
        """Called on SSTORE."""

    def on_account_access(self, address: Address, cold: bool) -> None:
        """Called on BALANCE/EXTCODE*/CALL-family account touches."""

    def on_code_fetch(self, address: Address, size: int) -> None:
        """Called when a frame's bytecode is loaded."""

    def on_log(self, address: Address, topics: list[int], data: bytes) -> None:
        """Called on LOG0..LOG4."""


@dataclass
class StructLog:
    """One step of a struct trace (debug_traceTransaction format)."""

    pc: int
    op: str
    gas: int
    depth: int
    stack: list[int]

    def to_dict(self) -> dict:
        return {
            "pc": self.pc,
            "op": self.op,
            "gas": self.gas,
            "depth": self.depth,
            "stack": [f"0x{v:x}" for v in self.stack],
        }


class StructTracer(Tracer):
    """Records every step; optionally with full stack snapshots."""

    def __init__(self, capture_stack: bool = True) -> None:
        self.logs: list[StructLog] = []
        self._capture_stack = capture_stack

    def on_step(self, frame: ExecutionFrame, opcode: int) -> None:
        self.logs.append(
            StructLog(
                pc=frame.pc,
                op=opcodes.name(opcode),
                gas=frame.gas,
                depth=frame.depth + 1,  # Geth numbers depth from 1
                stack=frame.stack.snapshot() if self._capture_stack else [],
            )
        )


class CallTracer(Tracer):
    """Builds the call tree and collects per-frame footprints."""

    def __init__(self) -> None:
        self.root: CallRecord | None = None
        self._stack: list[CallRecord] = []
        self.footprints: list[FrameFootprint] = []

    def on_frame_enter(self, frame: ExecutionFrame, kind: str) -> None:
        record = CallRecord(
            kind=kind,
            sender=frame.message.caller,
            to=frame.message.to,
            value=frame.message.value,
            input=frame.message.data,
            gas=frame.message.gas,
            depth=frame.depth,
        )
        if self._stack:
            self._stack[-1].calls.append(record)
        else:
            self.root = record
        self._stack.append(record)

    def on_frame_exit(self, frame: ExecutionFrame, kind: str, error: str | None) -> None:
        record = self._stack.pop()
        record.output = frame.output
        record.success = error is None
        record.error = error
        self.footprints.append(frame.footprint())

    @property
    def max_depth(self) -> int:
        """Deepest call depth reached (1 = no subcalls), as in Table I."""

        def depth_of(record: CallRecord) -> int:
            if not record.calls:
                return 1
            return 1 + max(depth_of(child) for child in record.calls)

        return depth_of(self.root) if self.root else 0


@dataclass
class EventCounts:
    """Aggregated event tallies driving the hardware timing model."""

    instructions: int = 0
    by_group: dict[str, int] = field(default_factory=dict)
    storage_reads: int = 0
    storage_writes: int = 0
    cold_slots: int = 0
    cold_accounts: int = 0
    account_accesses: int = 0
    frames: int = 0
    code_bytes_fetched: int = 0
    code_fetches: int = 0
    logs: int = 0
    max_memory_bytes: int = 0

    def to_dict(self) -> dict:
        """Canonical (sorted-group) form for reconciliation and export."""
        return {
            "instructions": self.instructions,
            "by_group": dict(sorted(self.by_group.items())),
            "storage_reads": self.storage_reads,
            "storage_writes": self.storage_writes,
            "cold_slots": self.cold_slots,
            "cold_accounts": self.cold_accounts,
            "account_accesses": self.account_accesses,
            "frames": self.frames,
            "code_bytes_fetched": self.code_bytes_fetched,
            "code_fetches": self.code_fetches,
            "logs": self.logs,
            "max_memory_bytes": self.max_memory_bytes,
        }


class CountingTracer(Tracer):
    """O(1)-per-step tallies; no stack snapshots, no log storage."""

    def __init__(self) -> None:
        self.counts = EventCounts()

    def on_step(self, frame: ExecutionFrame, opcode: int) -> None:
        counts = self.counts
        counts.instructions += 1
        group = opcodes.GROUP_NAMES[opcode]
        counts.by_group[group] = counts.by_group.get(group, 0) + 1
        if frame.memory.size > counts.max_memory_bytes:
            counts.max_memory_bytes = frame.memory.size

    def on_frame_enter(self, frame: ExecutionFrame, kind: str) -> None:
        self.counts.frames += 1

    def on_storage_read(self, address: Address, key: int, value: int, cold: bool) -> None:
        self.counts.storage_reads += 1
        if cold:
            self.counts.cold_slots += 1

    def on_storage_write(self, address: Address, key: int, value: int, cold: bool) -> None:
        self.counts.storage_writes += 1
        if cold:
            self.counts.cold_slots += 1

    def on_account_access(self, address: Address, cold: bool) -> None:
        self.counts.account_accesses += 1
        if cold:
            self.counts.cold_accounts += 1

    def on_code_fetch(self, address: Address, size: int) -> None:
        self.counts.code_fetches += 1
        self.counts.code_bytes_fetched += size

    def on_log(self, address: Address, topics: list[int], data: bytes) -> None:
        self.counts.logs += 1


class MultiTracer(Tracer):
    """Fan out hooks to several tracers.

    ``on_step`` fires once per instruction, so who takes it is settled
    here, once: a tracer that inherits the base no-op is left out, and a
    single taker is bound in place of the fan-out.
    """

    def __init__(self, *tracers: Tracer) -> None:
        self.tracers = list(tracers)
        self._step_hooks = [
            tracer.on_step
            for tracer in tracers
            if type(tracer).on_step is not Tracer.on_step
        ]
        if len(self._step_hooks) == 1:
            self.on_step = self._step_hooks[0]

    def on_step(self, frame, opcode):
        for hook in self._step_hooks:
            hook(frame, opcode)

    def on_frame_enter(self, frame, kind):
        for tracer in self.tracers:
            tracer.on_frame_enter(frame, kind)

    def on_frame_exit(self, frame, kind, error):
        for tracer in self.tracers:
            tracer.on_frame_exit(frame, kind, error)

    def on_storage_read(self, address, key, value, cold):
        for tracer in self.tracers:
            tracer.on_storage_read(address, key, value, cold)

    def on_storage_write(self, address, key, value, cold):
        for tracer in self.tracers:
            tracer.on_storage_write(address, key, value, cold)

    def on_account_access(self, address, cold):
        for tracer in self.tracers:
            tracer.on_account_access(address, cold)

    def on_code_fetch(self, address, size):
        for tracer in self.tracers:
            tracer.on_code_fetch(address, size)

    def on_log(self, address, topics, data):
        for tracer in self.tracers:
            tracer.on_log(address, topics, data)
