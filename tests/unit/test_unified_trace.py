"""Unit tests for repro.telemetry.unified: schema, commitment, reconciliation."""

import pytest

from repro.evm.tracer import EventCounts, StructLog
from repro.telemetry.tracer import Tracer
from repro.telemetry.unified import (
    StepTraceRecord,
    TraceReconciliationError,
    UnifiedStepTrace,
    counts_from_events,
    counts_from_span,
    counts_from_trace,
    from_struct_logs,
    group_for_op,
    reconcile_counts,
    reconcile_step_traces,
)


def _logs():
    return [
        StructLog(pc=0, op="PUSH1", gas=100_000, depth=1, stack=[]),
        StructLog(pc=2, op="PUSH1", gas=99_997, depth=1, stack=[0x60]),
        StructLog(pc=4, op="ADD", gas=99_994, depth=1, stack=[0x60, 0x2]),
        StructLog(pc=5, op="STOP", gas=99_991, depth=1, stack=[0x62]),
    ]


class TestSchema:
    def test_from_struct_logs_lifts_every_field(self):
        trace = from_struct_logs(_logs())
        assert trace.instructions == 4
        first = trace.records[0]
        assert isinstance(first, StepTraceRecord)
        assert (first.index, first.pc, first.op, first.depth) == (0, 0, "PUSH1", 1)
        assert first.gas == 100_000
        assert first.group == "stack"
        assert trace.records[2].group == "arithmetic"

    def test_group_for_op_falls_back_to_invalid(self):
        assert group_for_op("PUSH1") == "stack"
        assert group_for_op("INVALID(0xfe)") == "invalid"
        assert group_for_op("NOT-AN-OP") == "invalid"

    def test_group_counts(self):
        trace = from_struct_logs(_logs())
        assert trace.group_counts() == {"arithmetic": 1, "halt": 1, "stack": 2}


class TestCommitment:
    def test_commitment_is_stable_and_order_sensitive(self):
        a = from_struct_logs(_logs())
        b = from_struct_logs(_logs())
        assert a.commitment() == b.commitment()
        flipped = from_struct_logs(list(reversed(_logs())))
        assert flipped.commitment() != a.commitment()

    def test_empty_trace_commits(self):
        empty = UnifiedStepTrace(records=())
        assert empty.commitment() == UnifiedStepTrace(records=()).commitment()
        assert empty.commitment() != from_struct_logs(_logs()).commitment()

    def test_odd_leaf_count_commits(self):
        # 3 leaves exercises the odd-node promotion path.
        trace = from_struct_logs(_logs()[:3])
        assert len(trace.commitment()) == 64

    def test_gas_perturbation_changes_commitment(self):
        logs = _logs()
        logs[1] = StructLog(pc=2, op="PUSH1", gas=99_996, depth=1, stack=[])
        assert (from_struct_logs(logs).commitment()
                != from_struct_logs(_logs()).commitment())


class TestReconcileSteps:
    def test_identical_traces_reconcile_to_shared_root(self):
        a, b = from_struct_logs(_logs()), from_struct_logs(_logs())
        root = reconcile_step_traces(a, b)
        assert root == a.commitment() == b.commitment()

    def test_length_mismatch_is_typed(self):
        a = from_struct_logs(_logs())
        b = from_struct_logs(_logs()[:3])
        with pytest.raises(TraceReconciliationError) as err:
            reconcile_step_traces(a, b)
        assert err.value.field == "instructions"
        assert err.value.expected == 4 and err.value.actual == 3

    def test_field_divergence_names_the_step(self):
        logs = _logs()
        logs[2] = StructLog(pc=4, op="MUL", gas=99_994, depth=1, stack=[])
        with pytest.raises(TraceReconciliationError) as err:
            reconcile_step_traces(from_struct_logs(_logs()),
                                  from_struct_logs(logs))
        assert err.value.index == 2
        assert err.value.field == "op"
        assert "node" in str(err.value) and "hevm" in str(err.value)


class TestReconcileCounts:
    def test_events_and_trace_agree(self):
        trace = from_struct_logs(_logs())
        counts = EventCounts(instructions=4,
                             by_group={"stack": 2, "arithmetic": 1, "halt": 1})
        reconcile_counts(counts_from_trace(trace), counts_from_events(counts))

    def test_span_counts_round_trip(self):
        tracer = Tracer(clock=lambda: 0.0)
        span = tracer.record(
            "hevm.tx", layer="hevm", duration_us=1.0,
            instructions=4,
            opcode_groups={"stack": 2, "arithmetic": 1, "halt": 1},
        )
        assert counts_from_span(span) == counts_from_trace(
            from_struct_logs(_logs())
        )

    def test_span_without_counts_is_typed(self):
        tracer = Tracer(clock=lambda: 0.0)
        bare = tracer.record("hevm.tx", layer="hevm", duration_us=1.0)
        with pytest.raises(TraceReconciliationError):
            counts_from_span(bare)

    def test_group_divergence_names_the_group(self):
        a = {"instructions": 4, "by_group": {"stack": 2, "halt": 2}}
        b = {"instructions": 4, "by_group": {"stack": 3, "halt": 1}}
        with pytest.raises(TraceReconciliationError) as err:
            reconcile_counts(a, b)
        # Sorted group order: "halt" is the first divergence reported.
        assert err.value.field == "by_group.halt"
        assert (err.value.expected, err.value.actual) == (2, 1)

    def test_missing_group_diverges(self):
        a = {"instructions": 2, "by_group": {"stack": 2}}
        b = {"instructions": 2, "by_group": {"stack": 1, "halt": 1}}
        with pytest.raises(TraceReconciliationError):
            reconcile_counts(a, b)
