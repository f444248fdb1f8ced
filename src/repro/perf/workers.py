"""Module-level workers for :func:`repro.perf.parallel.run_parallel`.

Process pools pickle the callable and its item, so sweep rows live here
as plain top-level functions over plain-data items (tuples of ints,
floats, strings).  Each worker builds its full service stack from its
item's seeds — nothing is shared between rows, which is what makes the
parallel sweep's output byte-identical to the serial one.
"""

from __future__ import annotations


def serve_bench_row(item: tuple[int, str, int, float, int]) -> tuple:
    """One closed-loop serve-bench row: ``(cores, tps, per_hevm, util, p99_ms)``."""
    cores, workload, seed, rtt_us, requests = item
    from repro.hardware.timing import CostModel
    from repro.serving.loadgen import (
        model_gateway,
        model_sessions,
        run_closed_loop,
        synthetic_profiles,
    )

    cost = CostModel(ethernet_rtt_us=rtt_us)
    profiles = synthetic_profiles(cost, kind=workload, seed=seed)
    gateway = model_gateway(cores, cost)
    report = run_closed_loop(
        gateway, model_sessions(cores, profiles),
        requests_per_session=requests,
    )
    return (
        cores,
        report.throughput_tps,
        report.throughput_tps / cores,
        gateway.executor.server.utilization(gateway.now_us),
        report.latency_percentile_us(99) / 1000,
    )


def chaos_rate_row(
    item: tuple[float, int, int, int, int, int, int],
) -> list[str]:
    """One chaos-bench fault rate: the report's summary lines."""
    rate, seed, devices, tenants, requests, blocks, txs_per_block = item
    from repro.faults.harness import ChaosConfig, run_chaos
    from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

    evalset = build_evaluation_set(EvaluationSetConfig(
        blocks=blocks, txs_per_block=txs_per_block,
    ))
    report = run_chaos(
        ChaosConfig(
            seed=seed,
            fault_rate=rate,
            device_count=devices,
            tenants=tenants,
            requests_per_tenant=requests,
        ),
        evalset,
    )
    return report.summary_lines()


def paper_scale_level(
    item: tuple[str, int, int, int],
) -> tuple[str, list[float], float]:
    """One Figure 4 security level: ``(level, per-tx times µs, wall s)``.

    Rebuilds the evaluation set inside the worker — deterministic, so
    every worker sees the identical workload without sharing state.
    """
    level, blocks, txs_per_block, seed = item
    import time

    from repro.core.service import HarDTAPEService
    from repro.core.user import PreExecutionClient
    from repro.hypervisor.hypervisor import SecurityFeatures
    from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

    evalset = build_evaluation_set(EvaluationSetConfig(
        blocks=blocks, txs_per_block=txs_per_block, seed=seed,
    ))
    wall_started = time.time()
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level(level), charge_fees=False
    )
    client = PreExecutionClient(service.manufacturer.root_public_key)
    session = client.connect(service)
    times = []
    for tx in evalset.transactions:
        _, elapsed, _ = client.pre_execute(service, session, [tx])
        times.append(elapsed)
    return level, times, time.time() - wall_started
