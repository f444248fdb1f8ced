"""Command-line interface.

::

    python -m repro.cli demo                # quickstart scenario
    python -m repro.cli evalset --blocks 4  # build + describe an evaluation set
    python -m repro.cli figure4             # the Figure 4 sweep
    python -m repro.cli trace --tx 0        # opcode-level trace of one tx
    python -m repro.cli resources           # the §VI-A area table
    python -m repro.cli serve-bench         # gateway saturation sweep (§VI-D)
    python -m repro.cli chaos-bench         # fault injection + recovery sweep
    python -m repro.cli trace-bench         # traced run + critical-path table
    python -m repro.cli perf-bench          # crypto/ORAM byte oracle: digests + exact counts
    python -m repro.cli recovery-bench      # crash recovery + rollback gates
    python -m repro.cli c10k-bench          # 10k-session async tier + resumption gates
    python -m repro.cli obs-bench           # observability: identity, reconciliation, alerts
    python -m repro.cli receipt-bench       # signed receipts: Byzantine detection + quarantine gates

``serve-bench`` and ``chaos-bench`` accept ``--workers N`` to fan their
sweep rows across processes (deterministic: results are reduced in
input order, so the output is identical to ``--workers 1``).

Everything runs offline and deterministically.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.registry import BENCHES, BenchSpec
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set


def _build_evalset(args) -> "object":
    config = EvaluationSetConfig(
        blocks=args.blocks,
        txs_per_block=args.txs_per_block,
        seed=args.seed,
    )
    return build_evaluation_set(config)


def cmd_demo(args) -> int:
    from repro.node.node import EthereumNode
    from repro.state.account import Account, to_address
    from repro.state.blocks import Transaction
    from repro.workloads.contracts import erc20

    alice, bob, token = to_address(0xA1), to_address(0xB2), to_address(0x70CE)
    node = EthereumNode(genesis_accounts={
        alice: Account(balance=10**20),
        token: Account(code=erc20.erc20_runtime(),
                       storage={erc20.balance_slot(alice): 10**6}),
    })
    node.add_block([])
    service = HarDTAPEService(node, SecurityFeatures.from_level(args.level))
    client = PreExecutionClient(service.manufacturer.root_public_key)
    session = client.connect(service)
    print(f"attested device {service.devices[0].serial.decode()} "
          f"(level -{args.level})")
    report, elapsed, _ = client.pre_execute(service, session, [
        Transaction(sender=alice, to=token,
                    data=erc20.transfer_calldata(bob, 42)),
    ])
    trace = report.traces[0]
    print(f"pre-executed in {elapsed / 1000:.1f} ms (simulated): "
          f"status={trace.status} gas={trace.gas_used}")
    return 0


def cmd_evalset(args) -> int:
    evalset = _build_evalset(args)
    node = evalset.node
    print(f"evaluation set: seed={args.seed}, {node.height} blocks, "
          f"{len(evalset.transactions)} pre-executable transactions")
    print(f"contracts: {len(evalset.population.profiles)} profile, "
          "2 ERC-20, 1 DEX, 1 rollup, 1 honeypot")
    sizes = sorted(evalset.population.profile_sizes.values())
    print(f"profile code sizes: {sizes[0]}..{sizes[-1]} bytes")
    gas = [
        result.gas_used
        for number in range(2, node.height + 1)
        for result in node.block_at(number).results
    ]
    print(f"gas per tx: min={min(gas)} median={sorted(gas)[len(gas)//2]} "
          f"max={max(gas)}")
    return 0


def cmd_figure4(args) -> int:
    evalset = _build_evalset(args)
    transactions = evalset.transactions[:args.limit]
    print(f"{'config':>10} {'mean ms':>9}  (over {len(transactions)} txs)")
    for level in ("raw", "E", "ES", "ESO", "full"):
        service = HarDTAPEService(
            evalset.node, SecurityFeatures.from_level(level), charge_fees=False
        )
        client = PreExecutionClient(service.manufacturer.root_public_key)
        session = client.connect(service)
        total = 0.0
        for tx in transactions:
            _, elapsed, _ = client.pre_execute(service, session, [tx])
            total += elapsed
        print(f"{'-' + level:>10} {total / len(transactions) / 1000:>9.1f}")
    return 0


def cmd_trace(args) -> int:
    evalset = _build_evalset(args)
    service = HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )
    if not 0 <= args.tx < len(evalset.transactions):
        print(f"tx index out of range (0..{len(evalset.transactions) - 1})",
              file=sys.stderr)
        return 1
    tx = evalset.transactions[args.tx]
    device = service.devices[0]
    results, _, _, struct_traces = device.cores[0].run_bundle(
        [tx], service.pending_chain_context(),
        service._synced_state, device.oram_backend,
        storage_via_oram=True, code_via_oram=True,
        struct_trace=True, charge_fees=False,
    )
    logs = struct_traces[0]
    print(f"tx {args.tx}: to=0x{tx.to.hex()} status={results[0].status} "
          f"gas={results[0].gas_used} steps={len(logs)}")
    for entry in logs[:args.steps]:
        top = f"0x{entry.stack[-1]:x}" if entry.stack else "-"
        print(f"  pc={entry.pc:<6} {entry.op:<14} gas={entry.gas:<10} "
              f"depth={entry.depth} top={top}")
    if len(logs) > args.steps:
        print(f"  ... {len(logs) - args.steps} more steps")
    return 0


def cmd_disasm(args) -> int:
    from repro.evm.disassembler import format_listing, selector_candidates
    from repro.workloads.contracts import dex, erc20, honeypot, rollup
    from repro.workloads.contracts.profile import profile_runtime
    from repro.state.account import to_address

    library = {
        "erc20": erc20.erc20_runtime,
        "dex": lambda: dex.dex_runtime(to_address(0xA), to_address(0xB)),
        "rollup": rollup.rollup_runtime,
        "honeypot": honeypot.honeypot_runtime,
        "profile": profile_runtime,
    }
    if args.contract in library:
        code = library[args.contract]()
    else:
        try:
            code = bytes.fromhex(args.contract.removeprefix("0x"))
        except ValueError:
            print(f"unknown contract {args.contract!r}; choose from "
                  f"{sorted(library)} or pass hex bytecode", file=sys.stderr)
            return 1
    print(f"; {len(code)} bytes")
    selectors = selector_candidates(code)
    if selectors:
        print("; dispatch selectors: "
              + ", ".join(f"0x{s:08x}" for s in selectors))
    print(format_listing(code))
    return 0


def cmd_resources(args) -> int:
    from repro.hardware.resources import (
        HEVM_COMPONENTS,
        HypervisorMemoryBudget,
        hevm_resources,
        max_hevms,
    )

    total = hevm_resources()
    print("per-HEVM FPGA resources (model, calibrated to the paper):")
    for name, vector in HEVM_COMPONENTS.items():
        print(f"  {name:18s} {vector.luts:>8,} LUT {vector.ffs:>8,} FF "
              f"{vector.bram_bytes // 1024:>5} KB")
    print(f"  {'TOTAL':18s} {total.luts:>8,} LUT {total.ffs:>8,} FF "
          f"{total.bram_bytes // 1024:>5} KB")
    count, bottleneck = max_hevms()
    print(f"\nHEVMs per XCZU15EV: {count} ({bottleneck}-bound)")
    budget = HypervisorMemoryBudget()
    print(f"Hypervisor memory: {budget.binary_kb}+{budget.peak_stack_kb} "
          f"= {budget.total_kb} KB of {budget.ocm_kb} KB OCM")
    return 0


def _bad_seed(seed: int) -> bool:
    """Reject (and say why; callers then exit 2) a seed the benches cannot
    turn into eight big-endian bytes of DRBG personalization."""
    if 0 <= seed < 2**64:
        return False
    print(f"invalid --seed {seed}: must be a non-negative 64-bit integer",
          file=sys.stderr)
    return True


def cmd_serve_bench(args) -> int:
    from repro.hardware.timing import CostModel
    from repro.serving.admission import QueueDepthShedPolicy
    from repro.serving.loadgen import (
        model_gateway,
        model_sessions,
        run_open_loop,
        synthetic_profiles,
    )

    if _bad_seed(args.seed):
        return 2
    cost = CostModel(ethernet_rtt_us=args.rtt_us)
    profiles = synthetic_profiles(
        cost, kind=args.workload, seed=args.seed
    )
    try:
        sweep = [int(token) for token in args.hevms.split(",")]
    except ValueError:
        print(f"invalid --hevms {args.hevms!r}: expected comma-separated "
              "integers, e.g. 5,10,25", file=sys.stderr)
        return 2
    if any(cores <= 0 for cores in sweep):
        print(f"invalid --hevms {args.hevms!r}: fleet sizes must be positive",
              file=sys.stderr)
        return 2

    from repro.perf.parallel import run_parallel
    from repro.perf.workers import serve_bench_row

    print(f"closed-loop sweep ({args.workload} workload, "
          f"{args.requests} requests/session, rtt={args.rtt_us:g} µs"
          + (f", {args.workers} workers" if args.workers > 1 else "")
          + "):")
    print(f"{'HEVMs':>6} {'tx/s':>9} {'per-HEVM':>9} "
          f"{'server util':>12} {'p99 latency':>12}")
    rows = run_parallel(
        serve_bench_row,
        [(cores, args.workload, args.seed, args.rtt_us, args.requests)
         for cores in sweep],
        workers=args.workers,
    )
    for cores, tps, per_hevm, util, p99_ms in rows:
        print(f"{cores:>6} {tps:>9.1f} {per_hevm:>9.2f} "
              f"{util:>11.1%} {p99_ms:>10.1f}ms")

    if args.overload_rate > 0:
        cores = sweep[len(sweep) // 2]
        gateway = model_gateway(
            cores, cost, admission=QueueDepthShedPolicy(shed_depth=2 * cores)
        )
        report = run_open_loop(
            gateway, model_sessions(cores, profiles),
            rate_rps=args.overload_rate,
            total_requests=args.requests * cores,
            seed=args.seed, pattern="poisson",
        )
        print(f"\nopen-loop overload ({cores} HEVMs, "
              f"{args.overload_rate:g} req/s offered):")
        for line in report.summary_lines():
            print(f"  {line}")
    return 0


def cmd_chaos_bench(args) -> int:
    from repro.perf.parallel import run_parallel
    from repro.perf.workers import chaos_rate_row

    try:
        rates = [float(token) for token in args.rates.split(",")]
    except ValueError:
        print(f"invalid --rates {args.rates!r}: expected comma-separated "
              "numbers in [0, 1], e.g. 0,0.02,0.05", file=sys.stderr)
        return 2
    if any(not 0.0 <= rate <= 1.0 for rate in rates):
        print(f"invalid --rates {args.rates!r}: fault rates must be in [0, 1]",
              file=sys.stderr)
        return 2
    if _bad_seed(args.seed):
        return 2
    if min(args.devices, args.tenants, args.requests) <= 0:
        print("invalid fleet/load shape: --devices, --tenants and --requests "
              "must be positive", file=sys.stderr)
        return 2

    print(f"chaos sweep: seed={args.seed}, {args.devices} device(s), "
          f"{args.tenants} tenant(s) x {args.requests} request(s)"
          + (f", {args.workers} workers" if args.workers > 1 else ""))
    reports = run_parallel(
        chaos_rate_row,
        [(rate, args.seed, args.devices, args.tenants, args.requests,
          args.blocks, args.txs_per_block) for rate in rates],
        workers=args.workers,
    )
    for lines in reports:
        print()
        for line in lines:
            print(line)
    return 0


def cmd_trace_bench(args) -> int:
    import json

    from repro.telemetry.bench import (
        TOLERANCE_US,
        TraceBenchConfig,
        run_trace_bench,
    )

    if _bad_seed(args.seed):
        return 2
    if not 0.0 <= args.sample_rate <= 1.0:
        print(f"invalid --sample-rate {args.sample_rate}: must be in [0, 1]",
              file=sys.stderr)
        return 2
    if min(args.devices, args.tenants, args.requests) <= 0:
        print("invalid fleet/load shape: --devices, --tenants and --requests "
              "must be positive", file=sys.stderr)
        return 2

    evalset = build_evaluation_set(EvaluationSetConfig(
        blocks=args.blocks, txs_per_block=args.txs_per_block,
    ))
    config = TraceBenchConfig(
        seed=args.seed,
        sample_rate=args.sample_rate,
        device_count=args.devices,
        tenants=args.tenants,
        requests_per_tenant=args.requests,
    )
    report = run_trace_bench(config, evalset)
    for line in report.summary_lines():
        print(line)

    failures = 0
    for row in report.reconciliation:
        if abs(row.delta_us) > TOLERANCE_US:
            print(f"RECONCILIATION FAILED: {row.name} traced "
                  f"{row.traced_us} µs vs model {row.model_us} µs "
                  f"(tolerance {TOLERANCE_US} µs)", file=sys.stderr)
            failures += 1

    # The export must parse back and the run must reproduce byte for byte.
    json.loads(report.chrome_json)
    if not args.skip_determinism_check:
        rerun = run_trace_bench(config, evalset)
        if (rerun.chrome_json != report.chrome_json
                or rerun.prometheus_text != report.prometheus_text):
            print("DETERMINISM FAILED: identically seeded re-run produced "
                  "different export bytes", file=sys.stderr)
            failures += 1
        else:
            print("\ndeterminism: re-run byte-identical "
                  f"({len(report.chrome_json)} trace bytes, "
                  f"{len(report.prometheus_text)} metrics bytes)")

    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            handle.write(report.chrome_json)
        print(f"wrote Chrome trace to {args.trace_out} "
              "(load in Perfetto or chrome://tracing)")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(report.prometheus_text)
        print(f"wrote Prometheus metrics to {args.metrics_out}")
    return 1 if failures else 0


def cmd_registry_bench(args) -> int:
    """The one handler behind every ``repro.bench.registry`` subcommand."""
    spec: BenchSpec = args.bench
    if _bad_seed(args.seed):
        return 2
    config_class, run = spec.load()
    if args.smoke:
        config = config_class.smoke(seed=args.seed)
    else:
        config = config_class(seed=args.seed)
    for extra in spec.extra_args:
        value = getattr(args, extra.dest)
        if value != extra.default:
            setattr(config, extra.config_field, value)
    report = run(config)
    for line in report.summary_lines():
        print(line)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote {args.json_out}")
    if not report.passed:
        print(spec.failure_banner + "; ".join(report.gate_failures),
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HarDTAPE reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="quickstart pre-execution scenario")
    demo.add_argument("--level", default="full",
                      choices=["raw", "E", "ES", "ESO", "full"])
    demo.set_defaults(func=cmd_demo)

    def add_evalset_args(p):
        p.add_argument("--blocks", type=int, default=2)
        p.add_argument("--txs-per-block", type=int, default=6)
        p.add_argument("--seed", type=int, default=19_145_194)

    evalset = sub.add_parser("evalset", help="build and describe an evaluation set")
    add_evalset_args(evalset)
    evalset.set_defaults(func=cmd_evalset)

    figure4 = sub.add_parser("figure4", help="per-tx time across security levels")
    add_evalset_args(figure4)
    figure4.add_argument("--limit", type=int, default=6)
    figure4.set_defaults(func=cmd_figure4)

    trace = sub.add_parser("trace", help="opcode-level trace of one evalset tx")
    add_evalset_args(trace)
    trace.add_argument("--tx", type=int, default=0)
    trace.add_argument("--steps", type=int, default=25)
    trace.set_defaults(func=cmd_trace)

    resources = sub.add_parser("resources", help="§VI-A area table")
    resources.set_defaults(func=cmd_resources)

    disasm = sub.add_parser(
        "disasm", help="disassemble a library contract or hex bytecode"
    )
    disasm.add_argument("contract",
                        help="erc20|dex|rollup|honeypot|profile or hex")
    disasm.set_defaults(func=cmd_disasm)

    serve = sub.add_parser(
        "serve-bench",
        help="drive the multi-tenant gateway to saturation (§VI-D)",
    )
    serve.add_argument("--hevms", default="5,10,15,20,25,30,40,50",
                       help="comma-separated fleet sizes to sweep")
    serve.add_argument("--requests", type=int, default=40,
                       help="requests per session (closed loop)")
    serve.add_argument("--workload", default="full-load",
                       choices=["full-load", "mixed"])
    serve.add_argument("--rtt-us", type=float, default=0.0,
                       help="Ethernet RTT per ORAM query (µs)")
    serve.add_argument("--overload-rate", type=float, default=5000.0,
                       help="open-loop offered load in req/s (0 disables)")
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--workers", type=int, default=1,
                       help="processes for the closed-loop sweep "
                            "(1 = serial; output is identical either way)")
    serve.set_defaults(func=cmd_serve_bench)

    chaos = sub.add_parser(
        "chaos-bench",
        help="drive the gateway under injected faults (repro.faults)",
    )
    chaos.add_argument("--rates", default="0,0.02,0.05",
                       help="comma-separated per-decision fault rates in [0, 1]")
    chaos.add_argument("--seed", type=int, default=1,
                       help="fault-plan seed (non-negative, 64-bit)")
    chaos.add_argument("--devices", type=int, default=2,
                       help="HarDTAPE devices in the fleet")
    chaos.add_argument("--tenants", type=int, default=4)
    chaos.add_argument("--requests", type=int, default=5,
                       help="requests per tenant (closed loop)")
    chaos.add_argument("--blocks", type=int, default=2)
    chaos.add_argument("--txs-per-block", type=int, default=6)
    chaos.add_argument("--workers", type=int, default=1,
                       help="processes for the rate sweep "
                            "(1 = serial; output is identical either way)")
    chaos.set_defaults(func=cmd_chaos_bench)

    trace_bench = sub.add_parser(
        "trace-bench",
        help="traced gateway run + critical-path attribution (repro.telemetry)",
    )
    trace_bench.add_argument("--seed", type=int, default=7,
                             help="sampler seed (trace is byte-reproducible)")
    trace_bench.add_argument("--sample-rate", type=float, default=1.0,
                             help="fraction of requests to trace, in [0, 1]")
    trace_bench.add_argument("--devices", type=int, default=2,
                             help="HarDTAPE devices in the fleet")
    trace_bench.add_argument("--tenants", type=int, default=3)
    trace_bench.add_argument("--requests", type=int, default=4,
                             help="requests per tenant (closed loop)")
    trace_bench.add_argument("--blocks", type=int, default=2)
    trace_bench.add_argument("--txs-per-block", type=int, default=6)
    trace_bench.add_argument("--trace-out", default="",
                             help="write the Chrome trace JSON here")
    trace_bench.add_argument("--metrics-out", default="",
                             help="write the Prometheus text exposition here")
    trace_bench.add_argument("--skip-determinism-check", action="store_true",
                             help="skip the byte-identity re-run")
    trace_bench.set_defaults(func=cmd_trace_bench)

    for spec in BENCHES:
        bench = sub.add_parser(spec.command, help=spec.help)
        bench.add_argument("--seed", type=int, default=spec.default_seed)
        bench.add_argument("--smoke", action="store_true",
                           help="CI-sized run (same gates, faster)")
        for extra in spec.extra_args:
            bench.add_argument(extra.flag, type=extra.type,
                               default=extra.default, help=extra.help)
        bench.add_argument("--json-out", default="",
                           help=f"write the {spec.artifact} report here")
        bench.set_defaults(func=cmd_registry_bench, bench=spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
