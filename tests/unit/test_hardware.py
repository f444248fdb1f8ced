"""Hardware model: memory layers, timing, area model, CSU."""

import pytest

from repro.crypto.kdf import Drbg
from repro.crypto.ecc import InvalidSignature
from repro.hardware.csu import (
    BootImage,
    ConfigurationSecurityUnit,
    SecureBootError,
    verify_boot_receipt,
)
from repro.hardware.memory_layers import (
    CodeCache,
    Layer2CallStack,
    MemoryOverflowError,
    WorldStateCache,
)
from repro.hardware.resources import (
    HypervisorMemoryBudget,
    XCZU15EV,
    hevm_resources,
    max_hevms,
)
from repro.hardware.timing import CostModel, SimClock, TimeBreakdown
from repro.crypto.puf import Manufacturer


# -- SimClock ---------------------------------------------------------------


def test_clock_advances():
    clock = SimClock()
    clock.advance_us(5.0)
    clock.advance_us(2.5)
    assert clock.now_us == 7.5


def test_clock_rejects_negative():
    with pytest.raises(ValueError):
        SimClock().advance_us(-1.0)


def test_clock_advance_to_is_monotone():
    clock = SimClock()
    clock.advance_us(10.0)
    clock.advance_to(5.0)  # no-op: already past
    assert clock.now_us == 10.0
    clock.advance_to(20.0)
    assert clock.now_us == 20.0


# -- cost model ----------------------------------------------------------------


def test_oram_access_cost_dominated_by_rtt():
    cost = CostModel()
    access = cost.oram_access_us(tree_height=12, bucket_size=4, block_kb=1.0)
    assert access > cost.ethernet_rtt_us
    assert access < 2 * cost.ethernet_rtt_us


def test_hevm_cycle_time_matches_100mhz():
    cost = CostModel()
    assert cost.hevm_cycle_us == pytest.approx(0.01)  # 10 ns
    assert cost.hevm_instruction_us("stack", 100) == pytest.approx(1.0)


def test_geth_faster_per_simple_op_than_hevm():
    # A 4.35 GHz OoO core interprets simple ops faster than a 0.1 GHz
    # pipeline executes them; the HEVM wins on call-frame handling.
    cost = CostModel()
    assert cost.geth_instruction_us("arithmetic") > 0
    assert cost.geth_instruction_us("call_return") > cost.hevm_instruction_us(
        "call_return"
    )


def test_time_breakdown_totals():
    breakdown = TimeBreakdown(execution_us=1.0, swap_us=2.0)
    other = TimeBreakdown(oram_code_us=3.0)
    breakdown.add(other)
    assert breakdown.total_us == 6.0


# -- area model ------------------------------------------------------------------


def test_hevm_resources_match_paper():
    resources = hevm_resources()
    assert resources.luts == 103_388
    assert resources.ffs == 37_104
    assert resources.bram_bytes == 509 * 1024


def test_three_hevms_lut_bound():
    count, bottleneck = max_hevms()
    assert count == 3
    assert bottleneck == "LUT"


def test_chip_budget_sanity():
    per_hevm = hevm_resources()
    assert per_hevm.luts * 4 > XCZU15EV.luts  # four would not fit


def test_hypervisor_memory_budget():
    budget = HypervisorMemoryBudget()
    assert budget.total_kb == 248
    assert budget.heap_kb == 0
    assert budget.fits


# -- layer 2 call stack ------------------------------------------------------------


def _l2(capacity_kb=64, noise=False):
    return Layer2CallStack(
        capacity_bytes=capacity_kb * 1024,
        rng=Drbg(b"test"),
        noise_enabled=noise,
    )


def test_pages_for_rounding():
    assert Layer2CallStack.pages_for(0) == 1
    assert Layer2CallStack.pages_for(1) == 1
    assert Layer2CallStack.pages_for(1024) == 1
    assert Layer2CallStack.pages_for(1025) == 2


def test_no_swap_when_fitting():
    l2 = _l2(capacity_kb=64)
    events = l2.push_frame(10 * 1024)
    assert events == []
    assert l2.resident_pages == 10


def test_frame_limit_half_of_l2():
    l2 = _l2(capacity_kb=64)
    with pytest.raises(MemoryOverflowError):
        l2.push_frame(33 * 1024)  # > 32 KB limit


def test_expand_to_overflow():
    l2 = _l2(capacity_kb=64)
    l2.push_frame(1024)
    with pytest.raises(MemoryOverflowError):
        l2.expand_current(40 * 1024)


def test_bottom_frames_dump_when_full():
    l2 = _l2(capacity_kb=64)
    l2.push_frame(30 * 1024)
    l2.push_frame(30 * 1024)
    events = l2.push_frame(30 * 1024)  # 90 KB total > 64 KB
    assert any(event.direction == "out" for event in events)
    assert l2.resident_pages <= l2.capacity_pages


def test_pop_reloads_dumped_frame():
    l2 = _l2(capacity_kb=64)
    l2.push_frame(30 * 1024)
    l2.push_frame(30 * 1024)
    l2.push_frame(30 * 1024)  # bottom dumped
    events = l2.pop_frame()
    # Returning into the (resident) middle frame: no reload yet.
    events += l2.pop_frame()
    # Now the bottom frame must come back.
    reloads = [event for event in events if event.direction == "in"]
    assert len(reloads) == 1
    assert reloads[0].real_pages == 30


def test_swap_noise_inflates_counts():
    l2_noisy = _l2(capacity_kb=64, noise=True)
    l2_noisy.push_frame(30 * 1024)
    l2_noisy.push_frame(30 * 1024)
    events = l2_noisy.push_frame(30 * 1024)
    for event in events:
        assert event.page_count >= event.real_pages


def test_noise_disabled_counts_exact():
    l2 = _l2(capacity_kb=64, noise=False)
    l2.push_frame(30 * 1024)
    l2.push_frame(30 * 1024)
    events = l2.push_frame(30 * 1024)
    for event in events:
        assert event.page_count == event.real_pages


def test_reset_clears_everything():
    l2 = _l2()
    l2.push_frame(1024)
    l2.reset()
    assert l2.depth == 0
    assert l2.resident_pages == 0


def test_expand_is_monotone():
    l2 = _l2()
    l2.push_frame(1024)
    l2.expand_current(5 * 1024)
    l2.expand_current(3 * 1024)  # shrink attempts are ignored
    assert l2.resident_pages == 5


# -- L1 caches -----------------------------------------------------------------------


def test_world_state_cache_lru():
    cache = WorldStateCache(capacity_records=2)
    cache.put(("a",), 1)
    cache.put(("b",), 2)
    assert cache.get(("a",)) == 1  # refresh a
    cache.put(("c",), 3)  # evicts b
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) == 1
    assert cache.hits == 2 and cache.misses == 1


def test_world_state_cache_clear():
    cache = WorldStateCache()
    cache.put(("a",), 1)
    cache.clear()
    assert cache.get(("a",)) is None


def test_code_cache_page_capacity():
    cache = CodeCache(capacity_bytes=2048)  # 2 pages
    cache.put(b"A" * 20, 0, b"p0")
    cache.put(b"A" * 20, 1, b"p1")
    cache.put(b"A" * 20, 2, b"p2")  # evicts page 0
    assert cache.get(b"A" * 20, 0) is None
    assert cache.get(b"A" * 20, 2) == b"p2"


# -- CSU / secure boot ------------------------------------------------------------------


def _provisioned():
    manufacturer = Manufacturer(b"m-secret")
    puf, identity = manufacturer.provision(b"serial-1")
    return manufacturer, ConfigurationSecurityUnit(puf, identity)


def test_secure_boot_and_receipt_verification():
    manufacturer, csu = _provisioned()
    image = BootImage("hv", b"firmware-bytes")
    receipt = csu.secure_boot(image)
    assert csu.booted
    verify_boot_receipt(receipt, manufacturer.root_public_key)


def test_boot_rejects_wrong_measurement():
    _, csu = _provisioned()
    image = BootImage("hv", b"firmware-bytes")
    golden = BootImage("hv", b"other-firmware").measurement()
    with pytest.raises(SecureBootError):
        csu.secure_boot(image, expected_measurement=golden)


def test_receipt_from_forged_device_rejected():
    manufacturer, _ = _provisioned()
    rogue = Manufacturer(b"rogue")
    rogue_puf, rogue_identity = rogue.provision(b"serial-1")
    rogue_csu = ConfigurationSecurityUnit(rogue_puf, rogue_identity)
    receipt = rogue_csu.secure_boot(BootImage("hv", b"firmware-bytes"))
    with pytest.raises(InvalidSignature):
        verify_boot_receipt(receipt, manufacturer.root_public_key)


def test_receipt_pins_image_measurement():
    manufacturer, csu = _provisioned()
    receipt = csu.secure_boot(BootImage("hv", b"unexpected-firmware"))
    with pytest.raises(SecureBootError):
        verify_boot_receipt(
            receipt,
            manufacturer.root_public_key,
            expected_measurement=BootImage("hv", b"golden").measurement(),
        )
