"""The HEVM's 3-layer memory structure (paper §IV-B, "Data organization").

* **Layer 1** — the per-HEVM cache: fixed partitions for the runtime
  stack (32 KB), Code (64 KB), Input/Memory/ReturnData (4 KB each),
  frame state (1 KB), and a 64-record world-state cache (4 KB).
* **Layer 2** — the on-chip call stack: a 1 MB ring of 1 KB pages
  holding the execution frames.  A frame that reaches half of layer 2
  aborts the bundle with :class:`MemoryOverflowError` (the anti-DoS /
  anti-probe rule).
* **Layer 3** — untrusted memory: swapped-out pages leave the chip
  AES-GCM protected.  Swap events — all the adversary can see — carry
  only direction, page count, and time; the page counts are inflated
  with random pre-evict/pre-load noise so consecutive-reload counting
  cannot recover frame sizes (attack A5).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.kdf import Drbg

PAGE_BYTES = 1024
DEFAULT_L2_BYTES = 1024 * 1024  # 1 MB per HEVM

# Layer-1 partition sizes (bytes), per the paper's Table I-driven choices.
L1_PARTITIONS = {
    "stack": 32 * 1024,
    "code": 64 * 1024,
    "input": 4 * 1024,
    "memory": 4 * 1024,
    "return_data": 1 * 1024,
    "frame_state": 1 * 1024,
    "world_state": 4 * 1024,  # 64 records of 32 B keys + 32 B values
}

WORLD_STATE_CACHE_RECORDS = 64


class MemoryOverflowError(Exception):
    """A single execution frame outgrew half the layer-2 memory.

    The paper treats this as a deliberate attack (or an unsupported
    rollup transaction) and stops the bundle.
    """


@dataclass(slots=True)
class SwapEvent:
    """One adversary-visible layer-3 transfer."""

    direction: str  # "out" | "in"
    page_count: int  # includes noise pages
    real_pages: int  # ground truth, NOT visible to the adversary
    sim_time_us: float


@dataclass
class L2Stats:
    pages_swapped_out: int = 0
    pages_swapped_in: int = 0
    peak_pages_used: int = 0
    peak_frame_depth: int = 0


class Layer2CallStack:
    """Page-granular model of the on-chip call stack ring.

    Tracks, per frame, how many 1 KB pages it occupies.  When the ring
    fills, bottom frames' pages are dumped to layer 3 (oldest first);
    returning into a dumped frame reloads all its pages.  Random
    pre-evict/pre-load noise pages are added to every swap.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_L2_BYTES,
        rng: Drbg | None = None,
        noise_max_pages: int = 8,
        noise_enabled: bool = True,
        oversize_policy: str = "abort",
    ) -> None:
        """``oversize_policy``:

        * ``"abort"`` — the paper's rule: a frame reaching half of layer
          2 raises :class:`MemoryOverflowError` (anti-DoS, anti-probe).
        * ``"spill"`` — the generic alternative the paper rejects as too
          expensive (§IV-B): pages beyond the frame limit live in layer
          3, each producing a ``"spill"``/``"fill"`` swap event that the
          timing model can charge as a plain encrypted transfer or as a
          full ORAM access (the only pattern-safe variant).
        """
        if oversize_policy not in ("abort", "spill"):
            raise ValueError(f"unknown oversize policy {oversize_policy!r}")
        self.capacity_pages = capacity_bytes // PAGE_BYTES
        self.frame_limit_pages = self.capacity_pages // 2
        self._rng = rng or Drbg(b"l2-default")
        self.noise_max_pages = noise_max_pages
        self.noise_enabled = noise_enabled
        self.oversize_policy = oversize_policy
        # Frame stack: index 0 is the bottom (the tracer's virtual frame
        # sits below index 0 and never swaps).
        self._frame_pages: list[int] = []
        self._frame_resident: list[bool] = []
        self._frame_spilled_pages: list[int] = []
        self.stats = L2Stats()

    # -- geometry helpers ---------------------------------------------------

    @staticmethod
    def pages_for(size_bytes: int) -> int:
        return max(1, (size_bytes + PAGE_BYTES - 1) // PAGE_BYTES)

    def _resident_pages(self) -> int:
        return sum(
            pages
            for pages, resident in zip(self._frame_pages, self._frame_resident)
            if resident
        )

    def _noise(self) -> int:
        if not self.noise_enabled:
            return 0
        return self._rng.randint(self.noise_max_pages + 1)

    # -- operations -----------------------------------------------------------

    def push_frame(self, initial_bytes: int, sim_time_us: float = 0.0) -> list[SwapEvent]:
        """CALL: allocate a new top frame; may dump bottom pages."""
        pages = self.pages_for(initial_bytes)
        resident, spilled = self._split_frame(pages)
        events = self._emit_spill(spilled, sim_time_us)
        self._frame_pages.append(resident)
        self._frame_spilled_pages.append(spilled)
        self._frame_resident.append(True)
        self.stats.peak_frame_depth = max(
            self.stats.peak_frame_depth, len(self._frame_pages)
        )
        return events + self._make_room(sim_time_us)

    def expand_current(self, new_total_bytes: int, sim_time_us: float = 0.0) -> list[SwapEvent]:
        """Memory growth of the topmost frame."""
        if not self._frame_pages:
            return []
        pages = self.pages_for(new_total_bytes)
        resident, spilled = self._split_frame(pages)
        if resident <= self._frame_pages[-1] and spilled <= self._frame_spilled_pages[-1]:
            return []
        new_spill = max(0, spilled - self._frame_spilled_pages[-1])
        events = self._emit_spill(new_spill, sim_time_us)
        self._frame_pages[-1] = max(resident, self._frame_pages[-1])
        self._frame_spilled_pages[-1] = max(spilled, self._frame_spilled_pages[-1])
        return events + self._make_room(sim_time_us)

    def pop_frame(self, sim_time_us: float = 0.0) -> list[SwapEvent]:
        """RETURN/REVERT: drop the top frame, reload the caller if dumped."""
        if not self._frame_pages:
            return []
        self._frame_pages.pop()
        spilled = self._frame_spilled_pages.pop()
        self._frame_resident.pop()
        events: list[SwapEvent] = []
        if spilled:
            # Read back spilled pages once (trace export / merge-up).
            events.append(SwapEvent("fill", spilled, spilled, sim_time_us))
        if self._frame_resident and not self._frame_resident[-1]:
            real = self._frame_pages[-1]
            noise = self._noise()
            self._frame_resident[-1] = True
            self.stats.pages_swapped_in += real
            events.append(SwapEvent("in", real + noise, real, sim_time_us))
            events.extend(self._make_room(sim_time_us))
        return events

    def _check_frame_size(self, pages: int) -> None:
        if pages > self.frame_limit_pages:
            raise MemoryOverflowError(
                f"frame needs {pages} pages, limit is {self.frame_limit_pages} "
                f"(half of the {self.capacity_pages}-page layer 2)"
            )

    def _split_frame(self, pages: int) -> tuple[int, int]:
        """Resident/spilled page split for a frame of ``pages`` pages.

        Under the "abort" policy an oversized frame raises; under
        "spill" the overflow lives in layer 3.
        """
        if pages <= self.frame_limit_pages:
            return pages, 0
        if self.oversize_policy == "abort":
            self._check_frame_size(pages)
        return self.frame_limit_pages, pages - self.frame_limit_pages

    def _emit_spill(self, page_count: int, sim_time_us: float) -> list[SwapEvent]:
        if page_count <= 0:
            return []
        self.stats.pages_swapped_out += page_count
        return [SwapEvent("spill", page_count, page_count, sim_time_us)]

    def _make_room(self, sim_time_us: float) -> list[SwapEvent]:
        """Dump bottom resident frames until the ring fits."""
        events: list[SwapEvent] = []
        used = self._resident_pages()
        if used > self.stats.peak_pages_used:
            self.stats.peak_pages_used = used
        index = 0
        while used > self.capacity_pages and index < len(self._frame_pages) - 1:
            if self._frame_resident[index]:
                real = self._frame_pages[index]
                noise = self._noise()
                self._frame_resident[index] = False
                used -= real
                self.stats.pages_swapped_out += real
                events.append(SwapEvent("out", real + noise, real, sim_time_us))
            index += 1
        return events

    # -- introspection ------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._frame_pages)

    @property
    def resident_pages(self) -> int:
        return self._resident_pages()

    def reset(self) -> None:
        """Step 10: clear all on-chip memories on bundle release."""
        self._frame_pages.clear()
        self._frame_resident.clear()
        self._frame_spilled_pages.clear()


class WorldStateCache:
    """The 4 KB layer-1 world-state cache: 64 records, LRU.

    Caches account headers and storage records so that repeated access
    to the same data is local (no ORAM query) — the behaviour behind the
    paper's Figure 5 "all data found locally" comparison.  Cleared when
    the HEVM is released (step 10).
    """

    def __init__(self, capacity_records: int = WORLD_STATE_CACHE_RECORDS) -> None:
        self.capacity = capacity_records
        self._records: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> object | None:
        if key in self._records:
            self._records.move_to_end(key)
            self.hits += 1
            return self._records[key]
        self.misses += 1
        return None

    def put(self, key: tuple, value: object) -> None:
        self._records[key] = value
        self._records.move_to_end(key)
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)

    def clear(self) -> None:
        self._records.clear()


class CodeCache:
    """The 64 KB layer-1 code partition, holding 1 KB code pages (LRU)."""

    def __init__(self, capacity_bytes: int = L1_PARTITIONS["code"]) -> None:
        self.capacity_pages = capacity_bytes // PAGE_BYTES
        self._pages: OrderedDict[tuple, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, address: bytes, page_index: int) -> bytes | None:
        key = (address, page_index)
        if key in self._pages:
            self._pages.move_to_end(key)
            self.hits += 1
            return self._pages[key]
        self.misses += 1
        return None

    def put(self, address: bytes, page_index: int, page: bytes) -> None:
        key = (address, page_index)
        self._pages[key] = page
        self._pages.move_to_end(key)
        while len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)

    def clear(self) -> None:
        self._pages.clear()
