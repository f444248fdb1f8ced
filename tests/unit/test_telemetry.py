"""Unit coverage for the telemetry plane: tracer, attribution,
exporters, and the metrics satellites that shipped with it."""

import json

import pytest

from repro.hardware.timing import SimClock
from repro.serving.metrics import Gauge, Histogram, MetricsRegistry, flatten_name
from repro.telemetry.critical_path import (
    aggregate,
    attribute,
    attribute_all,
    attribution_table,
    request_roots,
)
from repro.telemetry.exporters import (
    CONTROL_PLANE_TID,
    chrome_trace_events,
    render_chrome_trace,
    render_prometheus,
)
from repro.telemetry.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    TraceSampler,
    Tracer,
    install_tracer,
    tracer_for,
    uninstall_tracer,
)


def make_tracer(clock: SimClock) -> Tracer:
    return Tracer(clock=lambda: clock.now_us)


# ----------------------------------------------------------------------
# Tracer mechanics
# ----------------------------------------------------------------------

class TestTracer:
    def test_record_covers_the_interval_the_advance_will_consume(self):
        clock = SimClock()
        tracer = make_tracer(clock)
        clock.advance_us(10.0)
        span = tracer.record("oram.access", "oram_storage", 25.0, kind="storage")
        clock.advance_us(25.0)
        assert (span.start_us, span.end_us) == (10.0, 35.0)
        assert span.duration_us == 25.0
        assert span.attributes["kind"] == "storage"

    def test_span_context_nests_and_ends_at_clock_position(self):
        clock = SimClock()
        tracer = make_tracer(clock)
        with tracer.span("outer", "service") as outer:
            clock.advance_us(5.0)
            with tracer.span("inner", "execution") as inner:
                clock.advance_us(7.0)
            clock.advance_us(3.0)
        assert inner.parent_id == outer.span_id
        assert (inner.start_us, inner.end_us) == (5.0, 12.0)
        assert (outer.start_us, outer.end_us) == (0.0, 15.0)

    def test_span_ends_even_when_the_block_raises(self):
        clock = SimClock()
        tracer = make_tracer(clock)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed", "execution") as span:
                clock.advance_us(4.0)
                raise RuntimeError("boom")
        assert span.end_us == 4.0
        assert tracer.active is None

    def test_start_end_span_take_explicit_times(self):
        tracer = make_tracer(SimClock())
        span = tracer.start_span("gateway.request", "request", start_us=100.0)
        tracer.end_span(span, 250.0)
        assert span.duration_us == 150.0

    def test_explicit_parent_overrides_the_stack(self):
        tracer = make_tracer(SimClock())
        root = tracer.start_span("root", "request", start_us=0.0)
        with tracer.span("active", "service"):
            child = tracer.start_span("child", "queueing", parent=root)
        assert child.parent_id == root.span_id

    def test_attach_parents_without_owning_the_lifetime(self):
        clock = SimClock()
        tracer = make_tracer(clock)
        execute = tracer.start_span("gateway.execute", "service", start_us=0.0)
        with tracer.attach(execute):
            inner = tracer.record("bundle.admission", "hypervisor", 1.0)
        assert inner.parent_id == execute.span_id
        assert execute.end_us is None  # attach never ends the span

    def test_suppressed_drops_all_spans(self):
        tracer = make_tracer(SimClock())
        with tracer.suppressed():
            assert tracer.record("hidden", "execution", 5.0) is NULL_SPAN
            with tracer.span("also-hidden", "execution") as span:
                assert span is NULL_SPAN
            assert tracer.active is None
        assert tracer.spans == []

    def test_shifted_stamps_the_domain_offset_onto_spans(self):
        tracer = make_tracer(SimClock())
        with tracer.shifted(1000.0):
            shifted = tracer.record("device-side", "execution", 2.0)
            assert tracer.shift_us == 1000.0
            with tracer.shifted(-400.0):
                nested = tracer.record("deeper", "execution", 2.0)
        outside = tracer.record("gateway-side", "request", 2.0)
        assert shifted.shift_us == 1000.0
        assert nested.shift_us == 600.0
        assert outside.shift_us == 0.0

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.record("x", "y", 1.0) is NULL_SPAN
        with NULL_TRACER.span("x", "y") as span:
            assert span is NULL_SPAN
        assert NULL_TRACER.active is None
        assert NULL_TRACER.sample() is True
        assert NULL_SPAN.set(foo=1) is NULL_SPAN
        assert NULL_SPAN.event("e", 0.0) is NULL_SPAN

    def test_registry_install_lookup_uninstall(self):
        clock = SimClock()
        assert tracer_for(clock) is NULL_TRACER
        tracer = install_tracer(clock)
        assert tracer_for(clock) is tracer
        clock.advance_us(42.0)
        assert tracer.now_us() == 42.0
        uninstall_tracer(clock)
        assert tracer_for(clock) is NULL_TRACER
        assert tracer_for(None) is NULL_TRACER

    def test_span_events_carry_time_and_attributes(self):
        tracer = make_tracer(SimClock())
        span = tracer.record("gateway.execute", "service", 10.0)
        span.event("fault", 3.0, error="HevmCrashError", attempt=1)
        assert span.events[0].name == "fault"
        assert span.events[0].at_us == 3.0
        assert span.events[0].attributes["error"] == "HevmCrashError"


class TestSampler:
    def test_same_seed_same_decisions(self):
        first = TraceSampler(rate=0.5, seed=9)
        second = TraceSampler(rate=0.5, seed=9)
        decisions = [first.should_sample() for _ in range(64)]
        assert decisions == [second.should_sample() for _ in range(64)]
        assert True in decisions and False in decisions

    def test_extreme_rates(self):
        assert all(TraceSampler(1.0, seed=1).should_sample() for _ in range(32))
        assert not any(TraceSampler(0.0, seed=1).should_sample() for _ in range(32))

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            TraceSampler(rate=1.5)

    def test_tracer_without_sampler_samples_everything(self):
        assert make_tracer(SimClock()).sample() is True


# ----------------------------------------------------------------------
# Critical-path attribution
# ----------------------------------------------------------------------

def build_request_tree(tracer: Tracer, clock: SimClock) -> None:
    """A hand-built request: 10 queue + (20 exec with 12 of oram inside)."""
    root = tracer.start_span("gateway.request", "request", start_us=clock.now_us)
    queue = tracer.start_span("gateway.queue", "queueing", parent=root)
    clock.advance_us(10.0)
    tracer.end_span(queue)
    execute = tracer.start_span("gateway.execute", "service", parent=root)
    with tracer.attach(execute):
        with tracer.span("hevm.tx", "execution"):
            clock.advance_us(4.0)
            tracer.record("oram.access", "oram_storage", 12.0)
            clock.advance_us(12.0)
            clock.advance_us(4.0)
    tracer.end_span(execute)
    tracer.end_span(root)


class TestCriticalPath:
    def test_exclusive_buckets_partition_the_root_exactly(self):
        clock = SimClock()
        tracer = make_tracer(clock)
        build_request_tree(tracer, clock)
        [attribution] = attribute_all(tracer)
        assert attribution.total_us == 30.0
        assert attribution.buckets == {
            "request": 0.0,
            "queueing": 10.0,
            "service": 0.0,
            "execution": 8.0,
            "oram_storage": 12.0,
        }
        assert attribution.residual_us == 0.0

    def test_request_roots_excludes_control_plane_and_open_spans(self):
        clock = SimClock()
        tracer = make_tracer(clock)
        tracer.record("attestation.report", "session", 5.0)  # control plane
        build_request_tree(tracer, clock)
        tracer.start_span("gateway.request", "request")      # never ended
        roots = request_roots(tracer)
        assert [span.name for span in roots] == ["gateway.request"]
        assert roots[0].end_us is not None

    def test_aggregate_sums_across_requests_with_sorted_keys(self):
        clock = SimClock()
        tracer = make_tracer(clock)
        build_request_tree(tracer, clock)
        build_request_tree(tracer, clock)
        totals = aggregate(attribute_all(tracer))
        assert list(totals) == sorted(totals)
        assert totals["queueing"] == 20.0
        assert totals["oram_storage"] == 24.0
        assert sum(totals.values()) == 60.0

    def test_attribution_table_renders_every_layer(self):
        table = attribution_table({"execution": 750.0, "queueing": 250.0}, requests=2)
        assert "execution" in table and "queueing" in table
        assert "75.0%" in table
        assert "end-to-end" in table

    def test_attribute_single_root_without_index(self):
        tracer = make_tracer(SimClock())
        root = tracer.start_span("gateway.request", "request", start_us=0.0)
        tracer.end_span(root, 5.0)
        attribution = attribute(tracer.spans, root)
        assert attribution.buckets == {"request": 5.0}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

class TestChromeExport:
    def trace(self):
        clock = SimClock()
        tracer = make_tracer(clock)
        tracer.record("session.dhke", "session", 5.0)  # control plane
        clock.advance_us(5.0)
        root = tracer.start_span(
            "gateway.request",
            "request",
            start_us=clock.now_us,
            attributes={"request_id": 7, "session": b"\xab\xcd"},
        )
        with tracer.attach(root):
            with tracer.shifted(100.0):
                span = tracer.record("oram.access", "oram_storage", 3.0)
                # Device-domain event on a device-domain span: no pre-shift.
                span.event("fault", clock.now_us, error="X")
            clock.advance_us(3.0)
        tracer.end_span(root)
        return tracer

    def test_document_parses_and_uses_complete_events(self):
        tracer = self.trace()
        document = json.loads(render_chrome_trace(tracer))
        assert document["displayTimeUnit"] == "ms"
        phases = [event["ph"] for event in document["traceEvents"]]
        assert "M" in phases and "X" in phases and "i" in phases

    def test_rows_split_control_plane_from_requests(self):
        events = chrome_trace_events(self.trace())
        by_name = {
            event["args"]["name"]: event
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert by_name["control-plane"]["tid"] == CONTROL_PLANE_TID
        assert by_name["request-7"]["tid"] == 7
        oram = next(e for e in events if e.get("name") == "oram.access")
        assert oram["tid"] == 7

    def test_shift_applied_and_bytes_hexed(self):
        events = chrome_trace_events(self.trace())
        oram = next(e for e in events if e.get("name") == "oram.access")
        assert oram["ts"] == 105.0  # started at 5, shifted by +100
        root = next(e for e in events if e.get("name") == "gateway.request")
        assert root["args"]["session"] == "abcd"
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["ts"] == 105.0  # device time + the span's shift


class TestPrometheusExport:
    def test_subsumes_the_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("gateway.submitted").inc(3)
        registry.counter("faults.injected", kind="dma-drop").inc()
        registry.gauge("gateway.queue_depth").set(4)
        registry.histogram("gateway.latency_us").observe(100.0)
        registry.histogram("gateway.latency_us").observe(300.0)
        text = render_prometheus(registry, layer_totals={"execution": 123.5})
        assert "# TYPE gateway_submitted_total counter" in text
        assert "gateway_submitted_total 3.0" in text
        assert 'faults_injected_total{kind="dma-drop"} 1.0' in text
        assert "gateway_queue_depth 4.0" in text
        assert "gateway_queue_depth_peak 4.0" in text
        assert 'gateway_latency_us{quantile="0.5"} 100.0' in text
        assert "gateway_latency_us_count 2.0" in text
        assert "gateway_latency_us_sum 400.0" in text
        assert "gateway_latency_us_max 300.0" in text
        assert 'hardtape_trace_layer_exclusive_us{layer="execution"} 123.5' in text
        assert text.endswith("\n")

    def test_rendering_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b").inc()
            registry.counter("a", z="1", a="2").inc()
            registry.gauge("g").set(-2)
            return render_prometheus(registry)

        assert build() == build()


# ----------------------------------------------------------------------
# Metrics satellites: gauge peak, histogram caches, labels, reset
# ----------------------------------------------------------------------

class TestGaugePeak:
    def test_negative_only_gauge_reports_negative_peak(self):
        gauge = Gauge()
        gauge.set(-5.0)
        gauge.set(-2.0)
        assert gauge.peak == -2.0  # not the 0.0 it was never set to

    def test_unset_gauge_peak_tracks_value(self):
        assert Gauge().peak == 0.0

    def test_peak_is_high_water(self):
        gauge = Gauge()
        for value in (1.0, 9.0, 3.0):
            gauge.set(value)
        assert (gauge.value, gauge.peak) == (3.0, 9.0)


class TestHistogramCaches:
    def test_running_total_and_max_match_recomputation(self):
        hist = Histogram()
        values = [5.0, -3.0, 12.0, 0.0, 12.0, 7.5]
        for value in values:
            hist.observe(value)
        assert hist.total == sum(values)
        assert hist.max == max(values)
        assert hist.mean == sum(values) / len(values)

    def test_first_sample_negative(self):
        hist = Histogram()
        hist.observe(-4.0)
        assert hist.max == -4.0

    def test_empty_histogram(self):
        hist = Histogram()
        assert (hist.total, hist.max, hist.mean, hist.count) == (0.0, 0.0, 0.0, 0)

    def test_percentiles_survive_unsorted_observation(self):
        hist = Histogram()
        for value in (30.0, 10.0, 20.0):
            hist.observe(value)
        assert hist.percentile(50) == 20.0
        assert hist.max == 30.0


class TestRegistryLabels:
    def test_labelled_metrics_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("faults.injected").inc()
        registry.counter("faults.injected", kind="dma-drop").inc(2)
        assert registry.counter("faults.injected").value == 1.0
        assert registry.counter("faults.injected", kind="dma-drop").value == 2.0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("x", a=1, b=2).inc()
        assert registry.counter("x", b=2, a=1).value == 1.0

    def test_snapshot_flattens_labels_sorted(self):
        registry = MetricsRegistry()
        registry.counter("x", b="2", a="1").inc()
        assert "x{a=1,b=2}" in registry.snapshot()
        assert flatten_name("x", (("a", "1"), ("b", "2"))) == "x{a=1,b=2}"
        assert flatten_name("x", ()) == "x"
