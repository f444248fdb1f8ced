"""The §VI-D fleet model: measured or synthetic profiles swept through
the model gateway, N HEVM slots sharing one ORAM-server ledger."""

import pytest

from repro.hardware.fleet import TxProfile, full_load_profile, profiles_from_breakdowns
from repro.hardware.timing import CostModel, TimeBreakdown
from repro.serving.loadgen import model_gateway, model_sessions, run_closed_loop

# A full-load HEVM profile: ~40 queries over ~80 ms of ORAM-bound work.
FULL_LOAD = TxProfile(exec_us=2_000.0, oram_queries=40, fixed_us=0.0)


def _run(profiles, hevms, per_hevm, cost=None):
    """One closed-loop fleet run: (report, server ledger, end time µs)."""
    gateway = model_gateway(hevms, cost or CostModel())
    report = run_closed_loop(
        gateway, model_sessions(hevms, profiles),
        requests_per_session=per_hevm,
    )
    return report, gateway.executor.server, gateway.now_us


def _sweep(profiles, counts, per_hevm, cost=None):
    return [_run(profiles, hevms, per_hevm, cost) for hevms in counts]


def test_single_hevm_completes_all_transactions():
    report, server, end_us = _run([FULL_LOAD], 1, 10)
    assert report.completed == 10
    assert server.queries_served == 10 * 40
    assert end_us > 0


def test_per_tx_time_matches_analytic_model():
    cost = CostModel()
    report, _, _ = _run([FULL_LOAD], 1, 5, cost)
    per_tx = report.duration_us / 5
    # One uncontended query ≈ RTT + service; plus exec time.
    expected = 40 * (cost.ethernet_rtt_us + cost.oram_server_cpu_us) + 2_000
    assert per_tx == pytest.approx(expected, rel=0.05)


def test_throughput_scales_then_saturates():
    runs = _sweep([FULL_LOAD], [1, 2, 4, 8], 20)
    tps = [report.throughput_tps for report, _, _ in runs]
    # Early scaling is near-linear (server far from saturated).
    assert tps[1] == pytest.approx(2 * tps[0], rel=0.1)
    assert tps[2] == pytest.approx(4 * tps[0], rel=0.1)


def test_server_utilization_grows_with_fleet():
    runs = _sweep([FULL_LOAD], [1, 10, 40], 10)
    utils = [server.utilization(end_us) for _, server, end_us in runs]
    assert utils[0] < utils[1] < utils[2]


def test_saturation_point_matches_service_ratio():
    # Make the analytic bound small so the sweep can cross it: with a
    # gap of ~service*4 per query, ~5 HEVMs saturate the server.
    cost = CostModel(ethernet_rtt_us=0.0)
    profile = TxProfile(exec_us=100.0 * 41, oram_queries=40)
    counts = [1, 2, 4, 6, 8, 12]
    runs = _sweep([profile], counts, 30, cost)
    knee = next(
        (hevms for hevms, (_, server, end_us) in zip(counts, runs)
         if server.utilization(end_us) >= 0.9),
        counts[-1],
    )
    # gap 100 µs / service 25 µs → ~(100+25)/25 = 5 HEVMs.
    assert 4 <= knee <= 8
    # Past the knee, throughput stops scaling linearly.
    tps = {hevms: report.throughput_tps for hevms, (report, _, _) in zip(counts, runs)}
    assert tps[12] < 3 * tps[4] * 1.05


def test_queue_wait_appears_only_under_contention():
    _, alone, _ = _run([FULL_LOAD], 1, 10)
    _, crowded, _ = _run([FULL_LOAD], 30, 10)
    assert alone.mean_queue_wait_us == pytest.approx(0.0, abs=1e-9)
    assert crowded.mean_queue_wait_us > 0.0


def test_zero_query_profile():
    profile = TxProfile(exec_us=500.0, oram_queries=0, fixed_us=100.0)
    report, server, _ = _run([profile], 2, 5)
    assert report.completed == 10
    assert server.queries_served == 0
    assert report.duration_us == pytest.approx(5 * 600.0)


def test_profiles_from_breakdowns():
    cost = CostModel()
    access_us = cost.oram_access_us(12, 4, 1.0)
    breakdown = TimeBreakdown(
        execution_us=100.0,
        oram_storage_us=5 * access_us,
        oram_code_us=10 * access_us,
    )
    profiles = profiles_from_breakdowns([breakdown])
    assert len(profiles) == 1
    assert profiles[0].oram_queries == 15
    assert profiles[0].fixed_us == 0.0


def test_empty_profiles_rejected():
    # A measured run with no breakdowns yields no profiles, and a fleet
    # with nothing to run is refused before any session is built.
    assert profiles_from_breakdowns([]) == []
    with pytest.raises(ValueError):
        model_sessions(4, [])


def test_mixed_profiles_round_robin():
    light = TxProfile(exec_us=10.0, oram_queries=1)
    heavy = TxProfile(exec_us=10.0, oram_queries=9)
    _, server, _ = _run([light, heavy], 1, 10)
    assert server.queries_served == 5 * 1 + 5 * 9


def test_the_ledger_keeps_only_the_buckets_a_later_query_can_reach():
    """25 full-load HEVMs, 10,000 requests, ~13 s of virtual time.  The
    ledger used to keep every 100 µs bucket the run touched (44,800 at
    the end); now it holds about one request's span of them."""
    cost = CostModel()
    profile = full_load_profile(cost)
    report, server, end_us = _run([profile], 25, 400, cost)
    assert report.completed == 10_000
    assert end_us / server.bucket_us > 100_000
    request_span_us = (profile.oram_queries + 1) * 630.0
    assert len(server._committed) <= 2 * request_span_us / server.bucket_us
