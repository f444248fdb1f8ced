"""Simulated time and the calibrated hardware cost model.

All times the repository reports are **simulated**: the functional
execution produces event counts (instructions retired by group, ORAM
round trips, crypto operations, page swaps), and the
:class:`CostModel` — whose constants come from the paper's measured
platform (HEVM @ 0.1 GHz on an XCZU15EV, ARM Cortex-A53 Hypervisor @
1.4 GHz, 2 ms Ethernet, 25 µs/query ORAM server, i7-12700 Geth box) —
converts them to microseconds on a :class:`SimClock`.

Calibration targets (paper §VI-C):

* -raw ≈ Geth + 0.5 ms, -E adds ≈ 2.9 ms, -ES adds ≈ 80 ms,
* ORAM adds ≈ 30 ms for K-V queries and ≈ 50 ms more for code,
* -full averages ≈ 164.4 ms per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ``oram_access_us`` arguments of the paper prototype's store (height-12
# tree, Z = 4, 1 KB blocks), for the model-only callers that price an
# access with no live store to ask.
PAPER_ORAM_SHAPE = (12, 4, 1.0)


class SimClock:
    """A monotonically advancing simulated clock (microseconds)."""

    def __init__(self) -> None:
        self._now_us = 0.0

    @property
    def now_us(self) -> float:
        return self._now_us

    def advance_us(self, amount: float) -> float:
        if amount < 0:
            raise ValueError("time cannot go backwards")
        self._now_us += amount
        return self._now_us

    def advance_to(self, deadline_us: float) -> None:
        if deadline_us > self._now_us:
            self._now_us = deadline_us


@dataclass
class CostModel:
    """Microsecond costs for every event class in the simulation."""

    # --- HEVM (four-stage pipeline @ 0.1 GHz → 10 ns/cycle) -------------
    hevm_cycle_us: float = 0.01
    # Average retired cycles per instruction by group; the pipeline
    # sustains ~1 instr/cycle on simple ops, more for wide operations.
    cycles_per_group: dict[str, float] = field(
        default_factory=lambda: {
            "arithmetic": 2.0,
            "comparison": 1.0,
            "sha3": 40.0,       # Keccak-f rounds on the hash unit
            "frame_state": 1.0,
            "block": 1.0,
            "stack": 1.0,
            "memory": 2.0,
            "storage": 30.0,    # L1 world-state cache lookup (multi-beat CAM)
            "jump": 2.0,        # pipeline flush on taken branch
            "log": 4.0,
            "call_return": 200.0,  # frame save/restore in layer 2
            "halt": 1.0,
            "invalid": 1.0,
        }
    )

    # --- Hypervisor (ARM Cortex-A53 @ 1.4 GHz) ---------------------------
    ecdsa_sign_us: float = 40_000.0
    ecdsa_verify_us: float = 40_000.0
    dhke_us: float = 55_000.0           # one-time per session
    attestation_us: float = 45_000.0    # one-time per session
    exception_handling_us: float = 2.0  # HEVM -> Hypervisor trap

    # --- Recovery plane (repro.recovery) ---------------------------------
    # Cold restart of the Hypervisor firmware: secure boot + HEVM resets.
    hypervisor_reboot_us: float = 150_000.0
    # Unsealing and installing the latest checkpoint image.
    checkpoint_restore_us: float = 8_000.0
    # Applying one sealed journal record during replay.
    journal_replay_record_us: float = 3.0

    # --- Async serving plane (repro.async_serving) ------------------------
    # Sealing one resumption ticket at suspension: HKDF + one AEAD over
    # ~200 B of session state on the A53.
    ticket_mint_us: float = 150.0
    # Redeeming a ticket on reconnect: unseal, HKDF re-key, channel
    # rebuild — the one-round-trip replacement for attestation (45 ms)
    # + DHKE (55 ms), which is why p99 resumed handshake cost gates at
    # ~0 relative to the full handshake.
    ticket_resume_us: float = 900.0

    # --- A.E.DMA (AES-GCM hardware) --------------------------------------
    aes_gcm_us_per_kb: float = 9.0
    aes_gcm_setup_us: float = 1.0
    # Per-bundle fixed path through the Hypervisor: interrupt handling,
    # header validation, DMA programming, core activation and scrub.
    # Calibrated so -raw ≈ Geth + 0.5 ms (paper §VI-C).
    bundle_admission_us: float = 500.0
    # Software half of a sealed channel message (key schedule, buffer
    # staging around the A.E.DMA).  Two messages per bundle ⇒ the paper's
    # +2.9 ms -E overhead.
    channel_seal_setup_us: float = 1_440.0

    # --- Interconnect ------------------------------------------------------
    ethernet_rtt_us: float = 2_000.0     # paper: 2 ms to the ORAM server
    dma_us_per_kb: float = 0.35          # on-board DDR4 page swap

    # --- ORAM ---------------------------------------------------------------
    oram_server_cpu_us: float = 25.0     # paper §VI-D
    oram_client_us_per_block: float = 1.2  # stash/posmap handling per *block*

    # --- Geth baseline (i7-12700 @ 4.35 GHz, all data in RAM) --------------
    geth_us_per_op: dict[str, float] = field(
        default_factory=lambda: {
            "arithmetic": 0.025,
            "comparison": 0.015,
            "sha3": 0.30,
            "frame_state": 0.015,
            "block": 0.015,
            "stack": 0.012,
            "memory": 0.020,
            "storage": 0.45,     # state-trie cache lookups
            "jump": 0.015,
            "log": 0.30,
            "call_return": 35.0,  # Go call-frame setup + state copies
            "halt": 0.01,
            "invalid": 0.01,
        }
    )
    geth_tx_fixed_us: float = 450.0      # RPC decode, sig handling, setup

    # Per-invocation entry costs for the Figure 5 local benches (the
    # cost of *starting* one contract call on each platform): Geth's
    # interpreter call path, TSC-VEE's TrustZone world switch, and the
    # HEVM's frame initialization.
    geth_invocation_us: float = 120.0
    tscvee_invocation_us: float = 30.0
    hevm_invocation_us: float = 20.0

    # --- TSC-VEE baseline (TrustZone, all data pre-fetched) ------------------
    tscvee_us_per_op: dict[str, float] = field(
        default_factory=lambda: {
            "arithmetic": 0.030,
            "comparison": 0.018,
            "sha3": 0.35,
            "frame_state": 0.018,
            "block": 0.018,
            "stack": 0.015,
            "memory": 0.024,
            "storage": 0.40,
            "jump": 0.018,
            "log": 0.32,
            "call_return": 0.0,   # unsupported: single contract only
            "halt": 0.01,
            "invalid": 0.01,
        }
    )

    # ------------------------------------------------------------------
    # Derived costs
    # ------------------------------------------------------------------

    def hevm_instruction_us(self, group: str, count: int = 1) -> float:
        cycles = self.cycles_per_group.get(group, 1.0)
        return cycles * self.hevm_cycle_us * count

    def geth_instruction_us(self, group: str, count: int = 1) -> float:
        return self.geth_us_per_op.get(group, 0.02) * count

    def tscvee_instruction_us(self, group: str, count: int = 1) -> float:
        return self.tscvee_us_per_op.get(group, 0.02) * count

    def aes_gcm_us(self, size_bytes: int) -> float:
        return self.aes_gcm_setup_us + self.aes_gcm_us_per_kb * (size_bytes / 1024.0)

    def channel_seal_us(self, size_bytes: int) -> float:
        """One sealed (AES-GCM) channel message, software path included."""
        return self.channel_seal_setup_us + self.aes_gcm_us(size_bytes)

    def oram_access_us(self, tree_height: int, bucket_size: int, block_kb: float) -> float:
        """End-to-end cost of one Path ORAM access.

        One Ethernet round trip, server CPU, and client-side handling of
        2·(height+1)·Z *blocks* (path read + path write).
        """
        blocks_moved = 2 * (tree_height + 1) * bucket_size
        return (
            self.ethernet_rtt_us
            + self.oram_server_cpu_us
            + blocks_moved * self.oram_client_us_per_block
            + blocks_moved * self.aes_gcm_us_per_kb * block_kb / 8.0  # pipelined AES
        )

    def page_swap_us(self, page_count: int) -> float:
        """Encrypt + DMA a batch of 1 KB layer-2 pages to/from layer 3."""
        kb = float(page_count)
        return self.aes_gcm_us(int(kb * 1024)) + self.dma_us_per_kb * kb


@dataclass
class TimeBreakdown:
    """Per-transaction time, split the way Figure 4's bars are."""

    execution_us: float = 0.0
    oram_storage_us: float = 0.0
    oram_code_us: float = 0.0
    swap_us: float = 0.0
    other_us: float = 0.0

    @property
    def total_us(self) -> float:
        return (
            self.execution_us
            + self.oram_storage_us
            + self.oram_code_us
            + self.swap_us
            + self.other_us
        )

    def add(self, other: "TimeBreakdown") -> None:
        self.execution_us += other.execution_us
        self.oram_storage_us += other.oram_storage_us
        self.oram_code_us += other.oram_code_us
        self.swap_us += other.swap_us
        self.other_us += other.other_us
