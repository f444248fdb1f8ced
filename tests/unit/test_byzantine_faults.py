"""Byzantine fault kinds: derived registry, inert hooks, armed lies."""

from types import SimpleNamespace

import pytest

from repro.crypto.ecc import PrivateKey
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultRule, _derive_all
from repro.hypervisor.receipts import make_receipt
from repro.telemetry.unified import (
    StepTraceRecord,
    UnifiedStepTrace,
    group_for_op,
)

pytestmark = pytest.mark.byzantine

BYZANTINE = (
    FaultKind.HEVM_RESULT_TAMPER,
    FaultKind.RECEIPT_FORGE,
    FaultKind.RECEIPT_OMIT,
    FaultKind.SYNC_EQUIVOCATE,
)


class TestDerivedRegistry:
    def test_all_is_derived_in_definition_order(self):
        assert len(FaultKind.ALL) == 13
        assert FaultKind.ALL[:2] == (FaultKind.DMA_DROP, FaultKind.DMA_DUPLICATE)
        # The Byzantine kinds were appended last, in declaration order.
        assert FaultKind.ALL[-4:] == BYZANTINE
        assert "ALL" not in FaultKind.ALL

    def test_derive_all_picks_up_new_kinds(self):
        @_derive_all
        class _Kinds:
            FIRST = "first"
            SECOND = "second"
            lowercase = "ignored"
            NUMERIC = 7  # non-str upper-case attrs are ignored too

        assert _Kinds.ALL == ("first", "second")

    def test_plan_provisions_every_kind(self):
        plan = FaultPlan(seed=5)
        for kind in FaultKind.ALL:
            assert plan.fires(kind) == 0
            assert plan.decisions(kind) == 0

    def test_rule_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("receipt-shred", 0.5)


def _injector(rate: float, kinds=BYZANTINE) -> FaultInjector:
    return FaultInjector(FaultPlan(1, [FaultRule(kind, rate) for kind in kinds]))


def _results():
    results = [SimpleNamespace(gas_used=21_000), SimpleNamespace(gas_used=40_004)]
    struct_logs = [
        [SimpleNamespace(gas=100_000)],
        [SimpleNamespace(gas=90_000), SimpleNamespace(gas=89_997)],
    ]
    return results, struct_logs


def _receipt():
    trace = UnifiedStepTrace(records=(
        StepTraceRecord(
            index=0, depth=1, pc=0, op="ADD",
            group=group_for_op("ADD"), gas=100_000,
        ),
    ))
    return make_receipt(b"\x11" * 16, [trace], PrivateKey(0xBEEF))


class TestZeroRateIsInert:
    def test_hevm_result_hook_returns_inputs_unchanged(self):
        injector = _injector(0.0)
        results, struct_logs = _results()
        out = injector.on_hevm_result(results, struct_logs, 10.0)
        assert out == (results, struct_logs)
        assert results[-1].gas_used == 40_004
        assert struct_logs[-1][-1].gas == 89_997

    def test_receipt_hook_passes_the_receipt_through(self):
        injector = _injector(0.0)
        receipt = _receipt()
        assert injector.on_receipt(receipt, 10.0) is receipt

    def test_sync_equivocate_hook_says_no(self):
        assert _injector(0.0).on_sync_equivocate(10.0) is False

    def test_no_draws_no_log(self):
        injector = _injector(0.0)
        injector.on_hevm_result(*_results(), 0.0)
        injector.on_receipt(_receipt(), 0.0)
        injector.on_sync_equivocate(0.0)
        assert injector.plan.log == []
        for kind in BYZANTINE:
            # Rate-0 rules skip the DRBG draw entirely (byte-identity).
            assert injector.plan.decisions(kind) == 0


def test_a_duplicate_the_channel_accepts_twice_crashes_the_run():
    """``dma-duplicate`` re-presents a message the channel just opened
    and expects the replay check to refuse it.  A channel that opens it
    again has a replay-protection hole: no typed fault for a policy to
    absorb, the run dies on the spot."""
    injector = FaultInjector(
        FaultPlan(1, [FaultRule(FaultKind.DMA_DUPLICATE, 1.0)])
    )
    forgetful = SimpleNamespace(open=lambda message: b"opened again")
    with pytest.raises(AssertionError, match="accepted twice"):
        injector.after_channel_open(forgetful, object(), 0.0)
    assert injector.plan.log == []  # nothing was absorbed


class TestArmedLies:
    def test_result_tamper_flips_gas_in_result_and_trace(self):
        injector = _injector(1.0, kinds=(FaultKind.HEVM_RESULT_TAMPER,))
        results, struct_logs = _results()
        injector.on_hevm_result(results, struct_logs, 10.0)
        assert results[-1].gas_used == 40_004 ^ 0x1
        assert struct_logs[-1][-1].gas == 89_997 ^ 0x1
        # Earlier transactions stay honest: the lie is minimal.
        assert results[0].gas_used == 21_000
        record = injector.plan.log[-1]
        assert record.kind == FaultKind.HEVM_RESULT_TAMPER
        assert record.site == "hypervisor.bundle.result"

    def test_result_tamper_on_an_empty_bundle_is_a_noop(self):
        injector = _injector(1.0, kinds=(FaultKind.HEVM_RESULT_TAMPER,))
        assert injector.on_hevm_result([], [], 10.0) == ([], [])

    def test_receipt_omit_withholds_the_receipt(self):
        injector = _injector(1.0, kinds=(FaultKind.RECEIPT_OMIT,))
        assert injector.on_receipt(_receipt(), 10.0) is None
        assert injector.plan.log[-1].site == "hypervisor.bundle.receipt"

    def test_receipt_forge_breaks_only_the_signature(self):
        injector = _injector(1.0, kinds=(FaultKind.RECEIPT_FORGE,))
        receipt = _receipt()
        forged = injector.on_receipt(receipt, 10.0)
        assert forged.signature.r == receipt.signature.r ^ 1
        assert forged.signature.s == receipt.signature.s
        assert forged.commitments == receipt.commitments
        assert injector.plan.log[-1].kind == FaultKind.RECEIPT_FORGE

    def test_sync_equivocate_withholds_the_block(self):
        injector = _injector(1.0, kinds=(FaultKind.SYNC_EQUIVOCATE,))
        assert injector.on_sync_equivocate(10.0) is True
        record = injector.plan.log[-1]
        assert record.kind == FaultKind.SYNC_EQUIVOCATE
        assert record.site == "core.service.sync_new_blocks"
