"""FPGA resource (area) model — reproduces the paper's §VI-A table.

The paper reports, from the Vivado utilization report of one HEVM
instance on an XCZU15EV: **103,388 LUTs, 37,104 FFs, 509 KB BlockRAM**,
with the LUT budget limiting a chip to **three HEVMs**.  We model each
HEVM as a sum of components whose costs are set from typical synthesis
results for such units, scaled so the totals match the paper; the
interesting *reproduction* is the bottleneck analysis (which resource
limits the per-chip HEVM count) and the Hypervisor memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResourceVector:
    """LUTs, flip-flops, and BlockRAM bytes."""

    luts: int = 0
    ffs: int = 0
    bram_bytes: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.luts + other.luts,
            self.ffs + other.ffs,
            self.bram_bytes + other.bram_bytes,
        )


# Per-component estimates for one HEVM (calibrated to the paper's totals).
HEVM_COMPONENTS: dict[str, ResourceVector] = {
    # 256-bit ALU with single-cycle add/logic, multi-cycle mul/div.
    "alu_256": ResourceVector(luts=38_000, ffs=9_200),
    # Keccak-f[1600] hash unit for SHA3/address derivation.
    "keccak_unit": ResourceVector(luts=16_500, ffs=4_800),
    # Four-stage fetch/decode/execute/writeback pipeline + control.
    "pipeline_control": ResourceVector(luts=21_000, ffs=10_400),
    # Gas accounting (static + dynamic), MSIZE/warm-set logic.
    "gas_unit": ResourceVector(luts=6_400, ffs=2_900),
    # Layer-1/2 memory controllers + page ring management.
    "memory_mgmt": ResourceVector(luts=12_288, ffs=5_104),
    # Tracer (virtual bottom frame, trace packing).
    "tracer": ResourceVector(luts=5_200, ffs=2_700),
    # Exception interface to the Hypervisor (metadata registers).
    "exception_unit": ResourceVector(luts=4_000, ffs=2_000),
    # BlockRAM: layer-1 partitions (110 KB) + 384 KB of layer 2 held in
    # BRAM (the rest of the 1 MB ring spills to URAM) + FIFOs.
    "blockram": ResourceVector(bram_bytes=509 * 1024),
}


# The XCZU15EV's budget (from the AMD/Xilinx data sheet).
XCZU15EV = ResourceVector(
    luts=341_280,
    ffs=682_560,
    bram_bytes=26_214_400 // 8,  # 26.2 Mb of BRAM
)

# Shared (once-per-chip) infrastructure: Hypervisor bridge, A.E.DMAs,
# Ethernet MAC, ORAM client stash/posmap BRAM (~1 MB).
SHARED_COMPONENTS: dict[str, ResourceVector] = {
    "ae_dma": ResourceVector(luts=9_500, ffs=6_200),
    "ethernet_and_bus": ResourceVector(luts=7_800, ffs=5_400),
    "oram_client_stash": ResourceVector(luts=4_200, ffs=2_100, bram_bytes=1_048_576),
    "hypervisor_ocm": ResourceVector(bram_bytes=256 * 1024),
}


def hevm_resources() -> ResourceVector:
    """Total resources of one HEVM instance."""
    total = ResourceVector()
    for vector in HEVM_COMPONENTS.values():
        total = total + vector
    return total


def shared_resources() -> ResourceVector:
    total = ResourceVector()
    for vector in SHARED_COMPONENTS.values():
        total = total + vector
    return total


def max_hevms() -> tuple[int, str]:
    """How many HEVMs fit on the XCZU15EV, and which resource binds first."""
    chip = XCZU15EV
    per_hevm = hevm_resources()
    shared = shared_resources()
    budgets = {
        "LUT": (chip.luts - shared.luts, per_hevm.luts),
        "FF": (chip.ffs - shared.ffs, per_hevm.ffs),
        "BRAM": (chip.bram_bytes - shared.bram_bytes, per_hevm.bram_bytes),
    }
    counts = {
        name: (available // per_unit if per_unit else 10**9)
        for name, (available, per_unit) in budgets.items()
    }
    bottleneck = min(counts, key=counts.get)
    return counts[bottleneck], bottleneck


@dataclass(frozen=True)
class HypervisorMemoryBudget:
    """The paper's software memory numbers (§VI-A)."""

    binary_kb: int = 156
    peak_stack_kb: int = 92
    heap_kb: int = 0  # "the Hypervisor does not require any heap memory"
    ocm_kb: int = 256

    @property
    def total_kb(self) -> int:
        return self.binary_kb + self.peak_stack_kb + self.heap_kb

    @property
    def fits(self) -> bool:
        return self.total_kb <= self.ocm_kb
