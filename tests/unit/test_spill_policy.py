"""The 'spill' oversize policy (the paper's rejected L3 alternative)."""

import pytest

from repro.crypto.kdf import Drbg
from repro.evm.interpreter import ChainContext
from repro.hardware.hevm import HevmCore
from repro.hardware.memory_layers import Layer2CallStack, MemoryOverflowError
from repro.hardware.timing import CostModel, SimClock
from repro.state.account import to_address
from repro.state.backend import DictBackend
from repro.state.blocks import BlockHeader, Transaction
from repro.workloads.contracts import rollup

ALICE = to_address(0xA1)


def _l2(policy):
    return Layer2CallStack(
        capacity_bytes=64 * 1024, rng=Drbg(b"s"), oversize_policy=policy,
        noise_enabled=False,
    )


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        Layer2CallStack(oversize_policy="bogus")


def test_abort_policy_still_raises():
    with pytest.raises(MemoryOverflowError):
        _l2("abort").push_frame(40 * 1024)


def test_spill_policy_allows_oversized_frames():
    l2 = _l2("spill")
    events = l2.push_frame(40 * 1024)  # 40 pages, limit 32
    spills = [e for e in events if e.direction == "spill"]
    assert len(spills) == 1
    assert spills[0].page_count == 8
    assert l2.resident_pages == 32  # only the resident part occupies L2


def test_spill_growth_emits_incremental_events():
    l2 = _l2("spill")
    l2.push_frame(40 * 1024)
    events = l2.expand_current(45 * 1024)
    spills = [e for e in events if e.direction == "spill"]
    assert sum(e.page_count for e in spills) == 5  # only the delta
    # No growth, no event.
    assert l2.expand_current(45 * 1024) == []


def test_spill_fill_on_frame_exit():
    l2 = _l2("spill")
    l2.push_frame(40 * 1024)
    events = l2.pop_frame()
    fills = [e for e in events if e.direction == "fill"]
    assert len(fills) == 1 and fills[0].page_count == 8


def _run_rollup(updates: int, policy: str, l3_oram: bool):
    backend = DictBackend()
    backend.ensure(ALICE).balance = 10**21
    contract = to_address(0x0110)
    backend.ensure(contract).code = rollup.rollup_runtime()
    header = BlockHeader(
        number=1, parent_hash=b"\x00" * 32, state_root=b"\x00" * 32,
        timestamp=0, coinbase=to_address(0xC0),
    )
    clock = SimClock()
    core = HevmCore(
        0, clock, CostModel(), l2_bytes=1024 * 1024,
        oversize_policy=policy, l3_oram=l3_oram,
    )
    tx = Transaction(
        sender=ALICE, to=contract,
        data=rollup.rollup_calldata([(i, 1) for i in range(updates)]),
        gas_limit=10**9,
    )
    results, breakdowns, stats, _ = core.run_bundle(
        [tx], ChainContext(header), backend, None,
        storage_via_oram=False, code_via_oram=False, charge_fees=False,
    )
    return results, breakdowns, stats


def test_big_rollup_aborts_under_paper_policy():
    results, _, stats = _run_rollup(10_000, "abort", l3_oram=False)
    assert stats.aborted


def test_big_rollup_completes_under_spill_policy():
    results, breakdowns, stats = _run_rollup(10_000, "spill", l3_oram=False)
    assert not stats.aborted
    assert results[0].success, results[0].error


def test_l3_oram_spill_is_orders_of_magnitude_slower():
    _, plain, _ = _run_rollup(10_000, "spill", l3_oram=False)
    _, oblivious, _ = _run_rollup(10_000, "spill", l3_oram=True)
    assert oblivious[0].swap_us > 50 * plain[0].swap_us
    # ... and busts the paper's 600 ms response-time requirement,
    # which is exactly why §IV-B rejects the generic L3-ORAM solution.
    assert oblivious[0].total_us > 600_000
