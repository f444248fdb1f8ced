"""Hardware model: HEVM cores, 3-layer memory, timing, area, secure boot."""

from repro.hardware.fleet import (
    OramServerLedger,
    TxProfile,
    full_load_profile,
    profile_finish_us,
    profiles_from_breakdowns,
)
from repro.hardware.csu import (
    BootImage,
    BootReceipt,
    ConfigurationSecurityUnit,
    SecureBootError,
    verify_boot_receipt,
)
from repro.hardware.hevm import (
    FRAME_BASE_BYTES,
    HardwareBackend,
    HardwareTracer,
    HevmCore,
    HevmRunStats,
)
from repro.hardware.memory_layers import (
    CodeCache,
    L1_PARTITIONS,
    Layer2CallStack,
    MemoryOverflowError,
    PAGE_BYTES,
    SwapEvent,
    WorldStateCache,
)
from repro.hardware.resources import (
    HEVM_COMPONENTS,
    HypervisorMemoryBudget,
    ResourceVector,
    SHARED_COMPONENTS,
    XCZU15EV,
    hevm_resources,
    max_hevms,
    shared_resources,
)
from repro.hardware.timing import CostModel, SimClock, TimeBreakdown

__all__ = [
    "BootImage",
    "BootReceipt",
    "CodeCache",
    "ConfigurationSecurityUnit",
    "CostModel",
    "FRAME_BASE_BYTES",
    "HEVM_COMPONENTS",
    "HardwareBackend",
    "HardwareTracer",
    "HevmCore",
    "HevmRunStats",
    "HypervisorMemoryBudget",
    "L1_PARTITIONS",
    "Layer2CallStack",
    "MemoryOverflowError",
    "OramServerLedger",
    "PAGE_BYTES",
    "ResourceVector",
    "SHARED_COMPONENTS",
    "SecureBootError",
    "SimClock",
    "SwapEvent",
    "TimeBreakdown",
    "TxProfile",
    "WorldStateCache",
    "XCZU15EV",
    "full_load_profile",
    "hevm_resources",
    "max_hevms",
    "profile_finish_us",
    "shared_resources",
    "profiles_from_breakdowns",
    "verify_boot_receipt",
]
