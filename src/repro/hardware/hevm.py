"""The HEVM device model: functional EVM + 3-layer memory + timing.

One :class:`HevmCore` is the paper's dedicated hardware set — EVM
pipeline, tracer, layer-1 cache, layer-2 call-stack ring — exclusively
assigned to one user bundle at a time (workflow steps 3–10).  The core
executes transactions with the shared functional interpreter while:

* advancing the :class:`~repro.hardware.timing.SimClock` per retired
  instruction group (4-stage pipeline @ 0.1 GHz),
* driving the :class:`~repro.hardware.memory_layers.Layer2CallStack`
  from frame enter/exit/growth events (with swap noise),
* routing world-state misses through the Hypervisor exception path to
  either the Path ORAM or prefetched untrusted memory, depending on the
  security configuration,
* interleaving pagewise code prefetches between queries.

A note on prefetch timing: the functional interpreter needs full
bytecode at frame entry, so code bytes are served immediately while the
corresponding ORAM accesses for pages beyond the first are *scheduled*
by the prefetcher and issued between subsequent queries.  The
adversary-visible trace (one access per page, consistent randomized
gaps, no bursts) is identical to the paper's ahead-of-use prefetching;
only the internal fetch direction differs.  See DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.kdf import Drbg
from repro.evm import opcodes
from repro.evm.executor import TransactionResult, execute_transaction
from repro.evm.interpreter import ChainContext
from repro.evm.tracer import (
    CallTracer,
    CountingTracer,
    MultiTracer,
    StructTracer,
    Tracer,
)
from repro.hardware.memory_layers import (
    CodeCache,
    Layer2CallStack,
    MemoryOverflowError,
    WorldStateCache,
)
from repro.hardware.timing import (
    PAPER_ORAM_SHAPE,
    CostModel,
    SimClock,
    TimeBreakdown,
)
from repro.oram.adapter import ObliviousStateBackend
from repro.oram.prefetch import CodePrefetcher
from repro.state.account import AccountMeta, Address
from repro.state.backend import CODE_PAGE_SIZE, StateBackend
from repro.state.blocks import Transaction
from repro.state.journal import JournaledState
from repro.telemetry.tracer import NULL_TRACER, tracer_for

# Fixed per-frame layer-2 baseline: 32 KB stack + 1 KB frame state.
FRAME_BASE_BYTES = 33 * 1024

# Each ORAM query is issued after a uniform 0..120 µs pacing jitter.
_PACING_MAX_US = 120


@dataclass
class HevmRunStats:
    """Everything a bundle run produced besides the trace itself."""

    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    l1_ws_hits: int = 0
    l1_ws_misses: int = 0
    oram_queries: int = 0
    direct_queries: int = 0
    aborted: bool = False
    abort_reason: str | None = None


class HardwareBackend(StateBackend):
    """Layer-1-cached state backend with Hypervisor-mediated misses."""

    def __init__(
        self,
        clock: SimClock,
        cost: CostModel,
        oram_backend: ObliviousStateBackend | None,
        direct_backend: StateBackend,
        storage_via_oram: bool,
        code_via_oram: bool,
        prefetcher: CodePrefetcher | None,
        breakdown: TimeBreakdown,
        ws_cache: WorldStateCache,
        code_cache: CodeCache,
        stats: HevmRunStats,
        pacing_rng: Drbg | None = None,
        span_tracer=None,
    ) -> None:
        self._clock = clock
        self._tracer = NULL_TRACER if span_tracer is None else span_tracer
        self._cost = cost
        self._oram = oram_backend
        self._direct = direct_backend
        # Where each kind of miss goes; ``None`` is the direct path.
        self._storage_oram = oram_backend if storage_via_oram else None
        self._code_oram = oram_backend if code_via_oram else None
        self._prefetcher = prefetcher
        self._breakdown = breakdown
        self._ws_cache = ws_cache
        self._code_cache = code_cache
        self._stats = stats
        self._pacing_rng = pacing_rng

    # -- cost plumbing ---------------------------------------------------

    def _pace(self) -> None:
        """Randomized issue-time jitter applied to EVERY ORAM query.

        Paper §IV-D: queries of both types go out "with consistent time
        interval".  Real queries carry execution-time residue in their
        gaps; padding every issue with the same jitter distribution makes
        code and storage gap distributions indistinguishable.
        """
        if self._pacing_rng is not None:
            dt = self._pacing_rng.randint(_PACING_MAX_US + 1)
            self._tracer.record("oram.pace", "other", float(dt))
            self._clock.advance_us(float(dt))
            self._breakdown.other_us += float(dt)

    def _charge_oram(self, kind: str) -> None:
        cost = self._cost.exception_handling_us + self._oram.access_cost_us(self._cost)
        layer = "oram_code" if kind == "code" else "oram_storage"
        span = self._tracer.record("oram.access", layer, cost, kind=kind)
        if self._tracer.enabled and self._oram is not None:
            last = self._oram.client.last_access
            span.set(
                stalls=last.stalls_absorbed,
                stall_us=last.stall_us,
                stash_blocks=last.stash_blocks,
            )
        self._clock.advance_us(cost)
        if kind == "code":
            self._breakdown.oram_code_us += cost
        else:
            self._breakdown.oram_storage_us += cost
        self._stats.oram_queries += 1
        self._pump_prefetch()

    def _charge_direct(self, size_bytes: int) -> None:
        cost = (
            self._cost.exception_handling_us
            + self._cost.dma_us_per_kb * max(size_bytes, 64) / 1024.0
        )
        self._tracer.record("dma.direct", "other", cost, bytes=size_bytes)
        self._clock.advance_us(cost)
        self._breakdown.other_us += cost
        self._stats.direct_queries += 1

    def _pump_prefetch(self) -> None:
        """Issue any code-page prefetches whose timers expired."""
        oram = self._code_oram
        if self._prefetcher is None or oram is None:
            return
        self._prefetcher.on_query(self._clock.now_us)
        for entry in self._prefetcher.due(self._clock.now_us):
            self._issue_prefetch(oram, entry)

    def _issue_prefetch(self, oram: ObliviousStateBackend, entry) -> None:
        # The wait until the entry's randomized fire time is dead time,
        # not an ORAM cost: it gets its own "idle" span so the execution
        # bucket still reconciles exactly with the breakdown.
        stall = entry.fire_time_us - self._clock.now_us
        if stall > 0:
            self._tracer.record("prefetch.wait", "idle", stall)
        self._clock.advance_to(entry.fire_time_us)
        self._pace()
        oram.prefetch_code_page(entry.address, entry.page_index)
        cost = oram.access_cost_us(self._cost)
        self._tracer.record(
            "oram.access",
            "oram_code",
            cost,
            kind="code",
            prefetch=True,
            page=entry.page_index,
            reason=entry.reason,
        )
        self._clock.advance_us(cost)
        self._breakdown.oram_code_us += cost
        self._stats.oram_queries += 1

    def drain_prefetches(self) -> None:
        """Flush queued code pages (bundle finishing / frame done)."""
        oram = self._code_oram
        if self._prefetcher is None or oram is None:
            return
        for entry in self._prefetcher.drain(self._clock.now_us):
            self._issue_prefetch(oram, entry)

    # -- StateBackend ------------------------------------------------------

    def get_meta(self, address: Address) -> AccountMeta:
        cached = self._ws_cache.get(("meta", address))
        if cached is not None:
            self._stats.l1_ws_hits += 1
            return cached  # type: ignore[return-value]
        self._stats.l1_ws_misses += 1
        oram = self._storage_oram
        if oram is not None:
            self._pace()
            meta = oram.get_meta(address)
            self._charge_oram("account")
        else:
            meta = self._direct.get_meta(address)
            self._charge_direct(128)
        self._ws_cache.put(("meta", address), meta)
        return meta

    def get_storage(self, address: Address, key: int) -> int:
        cached = self._ws_cache.get(("slot", address, key))
        if cached is not None:
            self._stats.l1_ws_hits += 1
            return cached  # type: ignore[return-value]
        self._stats.l1_ws_misses += 1
        oram = self._storage_oram
        if oram is not None:
            self._pace()
            value = oram.get_storage(address, key)
            self._charge_oram("storage")
        else:
            value = self._direct.get_storage(address, key)
            self._charge_direct(32)
        self._ws_cache.put(("slot", address, key), value)
        return value

    def get_code_page(self, address: Address, page_index: int) -> bytes:
        cached = self._code_cache.get(address, page_index)
        if cached is not None:
            return cached
        oram = self._code_oram
        if oram is not None:
            self._pace()
            page = oram.get_code_page(address, page_index)
            self._charge_oram("code")
        else:
            page = self._direct.get_code_page(address, page_index)
            self._charge_direct(CODE_PAGE_SIZE)
        self._code_cache.put(address, page_index, page)
        return page

    def get_code(self, address: Address) -> bytes:
        size = self.get_meta(address).code_size
        if size == 0:
            return b""
        page_count = (size + CODE_PAGE_SIZE - 1) // CODE_PAGE_SIZE
        oram = self._code_oram
        if oram is None or self._prefetcher is None:
            pages = [
                self.get_code_page(address, index) for index in range(page_count)
            ]
            return b"".join(pages)[:size]
        # ORAM + prefetch path: fetch the first uncached page eagerly,
        # queue the rest; functional bytes come from the direct shadow.
        first_missing = None
        for index in range(page_count):
            if self._code_cache.get(address, index) is None:
                first_missing = index
                break
        if first_missing is not None:
            self._pace()
            page = oram.get_code_page(address, first_missing)
            self._charge_oram("code")
            self._code_cache.put(address, first_missing, page)
            if first_missing + 1 < page_count:
                self._prefetcher.queue_code_pages(
                    address, first_missing + 1, page_count - 1
                )
                # Mark queued pages resident: they are in flight and the
                # core would stall-stream them on demand.
                for index in range(first_missing + 1, page_count):
                    self._code_cache.put(
                        address, index, self._direct.get_code_page(address, index)
                    )
        pages = [
            self._code_cache.get(address, index) or b"\x00" * CODE_PAGE_SIZE
            for index in range(page_count)
        ]
        return b"".join(pages)[:size]


def step_costs_us(cost: CostModel) -> list[float | None]:
    """What one step of each opcode costs under ``cost``, by opcode byte.

    Built from the model as it is *now* (a run reads it once, up front):
    perturbing ``cycles_per_group`` or ``hevm_cycle_us`` between runs
    moves the next run's clock, and each entry is the very float
    ``hevm_instruction_us`` returns, so the clock advances bit for bit
    as it would asking per step.
    """
    return [
        cost.hevm_instruction_us(group) if group is not None else None
        for group in opcodes.GROUP_NAMES
    ]


class HardwareTracer(Tracer):
    """Drives the clock and the layer-2 model from interpreter events."""

    def __init__(
        self,
        clock: SimClock,
        cost: CostModel,
        l2: Layer2CallStack,
        breakdown: TimeBreakdown,
        step_us: list[float | None],
        spill_page_cost_us: float | None = None,
        span_tracer=None,
    ) -> None:
        self._clock = clock
        self._cost = cost
        self._step_us = step_us
        self._l2 = l2
        self._breakdown = breakdown
        self._spill_page_cost_us = spill_page_cost_us
        self._tracer = NULL_TRACER if span_tracer is None else span_tracer
        self._frame_memory: list[int] = []

    def on_step(self, frame, opcode: int) -> None:
        dt = self._step_us[opcode]
        self._clock.advance_us(dt)
        self._breakdown.execution_us += dt
        if self._frame_memory and frame.memory.size > self._frame_memory[-1]:
            self._frame_memory[-1] = frame.memory.size
            events = self._l2.expand_current(
                FRAME_BASE_BYTES + frame.memory.size, self._clock.now_us
            )
            self._charge_swaps(events)

    def on_frame_enter(self, frame, kind: str) -> None:
        self._frame_memory.append(0)
        events = self._l2.push_frame(
            FRAME_BASE_BYTES + len(frame.message.data), self._clock.now_us
        )
        self._charge_swaps(events)

    def on_frame_exit(self, frame, kind: str, error: str | None) -> None:
        self._frame_memory.pop()
        events = self._l2.pop_frame(self._clock.now_us)
        self._charge_swaps(events)

    def _charge_swaps(self, events) -> None:
        for event in events:
            if (
                event.direction in ("spill", "fill")
                and self._spill_page_cost_us is not None
            ):
                # Layer 3 as an ORAM: every spilled page is one access.
                dt = self._spill_page_cost_us * event.page_count
            else:
                dt = self._cost.page_swap_us(event.page_count)
            self._tracer.record(
                "l2.swap",
                "swap",
                dt,
                direction=event.direction,
                pages=event.page_count,
                real_pages=event.real_pages,
            )
            self._clock.advance_us(dt)
            self._breakdown.swap_us += dt


class HevmCore:
    """One dedicated hardware set: HEVM + tracer + local memory."""

    def __init__(
        self,
        core_id: int,
        clock: SimClock,
        cost: CostModel,
        rng: Drbg | None = None,
        l2_bytes: int = 1024 * 1024,
        swap_noise: bool = True,
        oversize_policy: str = "abort",
        l3_oram: bool = False,
    ) -> None:
        """``oversize_policy``/``l3_oram``: see
        :class:`~repro.hardware.memory_layers.Layer2CallStack`.  With
        ``l3_oram=True``, spilled pages are charged as full Path ORAM
        accesses (the pattern-safe but expensive §IV-B alternative);
        otherwise spills cost a plain encrypted DMA transfer, which
        leaks the access pattern of the oversized frame.
        """
        self.core_id = core_id
        self.clock = clock
        self.cost = cost
        self.l3_oram = l3_oram
        self._rng = rng or Drbg(b"hevm" + core_id.to_bytes(4, "big"))
        self.l2 = Layer2CallStack(
            capacity_bytes=l2_bytes,
            rng=self._rng.fork(b"l2-noise"),
            noise_enabled=swap_noise,
            oversize_policy=oversize_policy,
        )
        self.ws_cache = WorldStateCache()
        self.code_cache = CodeCache()
        self.busy = False
        # Fault-injection seam (``repro.faults``): called before each
        # transaction of a bundle with ``(core, txs_completed)``; may
        # raise a typed crash error to model a mid-bundle HEVM fault.
        self.fault_hook = None

    def reset(self) -> None:
        """Workflow step 10: clear all on-chip memories."""
        self.l2.reset()
        self.ws_cache.clear()
        self.code_cache.clear()
        self.busy = False

    def run_bundle(
        self,
        transactions: list[Transaction],
        chain: ChainContext,
        direct_backend: StateBackend,
        oram_backend: ObliviousStateBackend | None,
        storage_via_oram: bool,
        code_via_oram: bool,
        prefetch_enabled: bool = True,
        struct_trace: bool = False,
        charge_fees: bool = True,
        query_padding: bool = False,
    ) -> tuple[list[TransactionResult], list[TimeBreakdown], HevmRunStats, list]:
        """Simulate a bundle on this core (workflow steps 4–9).

        Returns per-transaction results, per-transaction time breakdowns,
        run stats, and (optionally) per-transaction struct traces.
        """
        self.busy = True
        stats = HevmRunStats()
        span_tracer = tracer_for(self.clock)
        step_us = step_costs_us(self.cost)
        prefetcher = None
        if prefetch_enabled and code_via_oram and oram_backend is not None:
            prefetcher = CodePrefetcher(self._rng.fork(b"prefetch"))
        results: list[TransactionResult] = []
        breakdowns: list[TimeBreakdown] = []
        struct_traces: list = []
        backend: HardwareBackend | None = None
        state: JournaledState | None = None
        tx_span = None
        try:
            for tx in transactions:
                breakdown = TimeBreakdown()
                backend = HardwareBackend(
                    clock=self.clock,
                    cost=self.cost,
                    oram_backend=oram_backend,
                    direct_backend=direct_backend,
                    storage_via_oram=storage_via_oram,
                    code_via_oram=code_via_oram,
                    prefetcher=prefetcher,
                    breakdown=breakdown,
                    ws_cache=self.ws_cache,
                    code_cache=self.code_cache,
                    stats=stats,
                    # Pacing is part of the same §IV-D "mixing query
                    # types" defense as prefetching: both on or both off.
                    pacing_rng=(
                        self._rng.fork(b"pacing")
                        if prefetch_enabled
                        and (storage_via_oram or code_via_oram)
                        and oram_backend is not None
                        else None
                    ),
                    span_tracer=span_tracer,
                )
                if state is None:
                    state = JournaledState(backend)
                else:
                    state = _rebind_journal(state, backend)
                spill_cost = (
                    self.cost.oram_access_us(*PAPER_ORAM_SHAPE)
                    if self.l3_oram
                    else None
                )
                hw_tracer = HardwareTracer(
                    self.clock, self.cost, self.l2, breakdown, step_us,
                    spill_page_cost_us=spill_cost,
                    span_tracer=span_tracer,
                )
                tracers: list[Tracer] = [hw_tracer]
                struct = StructTracer() if struct_trace else None
                if struct is not None:
                    tracers.append(struct)
                call_tracer = CallTracer()
                tracers.append(call_tracer)
                # Opcode-group tallies for the span; pure counting, no
                # clock or state effects, so results stay identical.
                counting = CountingTracer() if span_tracer.enabled else None
                if counting is not None:
                    tracers.append(counting)
                hits_before = stats.l1_ws_hits
                misses_before = stats.l1_ws_misses
                oram_before = stats.oram_queries
                direct_before = stats.direct_queries
                with span_tracer.span(
                    "hevm.tx", "execution", core=self.core_id, index=len(results)
                ) as tx_span:
                    if self.fault_hook is not None:
                        self.fault_hook(self, len(results))
                    result = execute_transaction(
                        state,
                        chain,
                        tx,
                        tracer=MultiTracer(*tracers),
                        charge_fees=charge_fees,
                    )
                    backend.drain_prefetches()
                if counting is not None:
                    tx_span.set(
                        status=result.status,
                        gas_used=result.gas_used,
                        instructions=counting.counts.instructions,
                        opcode_groups=dict(sorted(counting.counts.by_group.items())),
                        l1_hits=stats.l1_ws_hits - hits_before,
                        l1_misses=stats.l1_ws_misses - misses_before,
                        oram_queries=stats.oram_queries - oram_before,
                        direct_queries=stats.direct_queries - direct_before,
                        l2_peak_pages=self.l2.stats.peak_pages_used,
                    )
                stats.breakdown.add(breakdown)
                results.append(result)
                breakdowns.append(breakdown)
                struct_traces.append(struct.logs if struct is not None else None)
        except MemoryOverflowError as exc:
            stats.aborted = True
            stats.abort_reason = str(exc)
            if tx_span is not None:
                tx_span.set(aborted=True, abort_reason=stats.abort_reason)
        finally:
            if backend is not None:
                backend.drain_prefetches()
            if (
                query_padding
                and oram_backend is not None
                and stats.oram_queries > 0
            ):
                # Pad the bundle's query count to the next power of two
                # so the count no longer tracks the contract's code size.
                target = 1
                while target < stats.oram_queries:
                    target *= 2
                pad_breakdown = breakdowns[-1] if breakdowns else TimeBreakdown()
                while stats.oram_queries < target:
                    oram_backend.dummy_query()
                    cost_us = oram_backend.access_cost_us(self.cost)
                    span_tracer.record("oram.pad", "other", cost_us, kind="padding")
                    self.clock.advance_us(cost_us)
                    pad_breakdown.other_us += cost_us
                    stats.oram_queries += 1
        return results, breakdowns, stats, struct_traces


def _rebind_journal(state: JournaledState, backend: StateBackend) -> JournaledState:
    """Keep bundle-visible writes while switching per-tx breakdown sinks."""
    state._backend = backend  # the journal overlay itself persists
    return state
