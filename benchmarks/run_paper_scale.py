"""Paper-scale experiment runner (not collected by pytest).

The pytest benchmarks use a laptop-scale evaluation set so the whole
harness finishes in ~1 minute.  This script runs the Figure 4 sweep at
a user-chosen scale — up to the paper's 100 blocks — and prints the
same comparison table.  Expect minutes of wall time at larger scales
(the pure-Python ORAM moves ~100 encrypted KB per access).

Usage::

    python benchmarks/run_paper_scale.py --blocks 20 --txs-per-block 10
    python benchmarks/run_paper_scale.py --blocks 100 --txs-per-block 20 \
        --levels ES full --workers 4

``--workers N`` fans the security levels across processes
(:mod:`repro.perf.parallel`); numbers are identical to a serial run —
each worker rebuilds the same deterministic evaluation set — only wall
clock changes.
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.baselines.geth import GethSimulator
from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

PAPER_MS = {"geth": 1.0, "raw": 1.5, "E": 4.4, "ES": 84.4, "ESO": 114.4,
            "full": 164.4}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=20)
    parser.add_argument("--txs-per-block", type=int, default=10)
    parser.add_argument("--seed", type=int, default=19_145_194)
    parser.add_argument(
        "--levels", nargs="+", default=["raw", "E", "ES", "ESO", "full"],
        choices=["raw", "E", "ES", "ESO", "full"],
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="processes for the level sweep (1 = serial)")
    args = parser.parse_args()

    started = time.time()
    print(f"building evaluation set: {args.blocks} blocks x "
          f"{args.txs_per_block} tx ...")
    evalset = build_evaluation_set(
        EvaluationSetConfig(
            blocks=args.blocks,
            txs_per_block=args.txs_per_block,
            seed=args.seed,
        )
    )
    transactions = evalset.transactions
    print(f"  {len(transactions)} transactions "
          f"({time.time() - started:.0f}s wall)\n")

    print(f"{'config':>10} {'paper ms':>9} {'mean ms':>9} {'p50':>7} "
          f"{'p95':>7} {'wall s':>7}")

    geth = GethSimulator(evalset.node.state_at(evalset.node.height).copy())
    chain = evalset.node.chain_context(evalset.node.latest.block.header)
    times = [geth.execute(chain, tx, charge_fees=False).time_us
             for tx in transactions]
    _report("geth", times, 0.0)

    if args.workers > 1:
        from repro.perf.parallel import run_parallel
        from repro.perf.workers import paper_scale_level

        rows = run_parallel(
            paper_scale_level,
            [(level, args.blocks, args.txs_per_block, args.seed)
             for level in args.levels],
            workers=args.workers,
        )
        for level, times, wall_s in rows:
            _report(level, times, wall_s)
    else:
        for level in args.levels:
            wall_started = time.time()
            service = HarDTAPEService(
                evalset.node, SecurityFeatures.from_level(level), charge_fees=False
            )
            client = PreExecutionClient(service.manufacturer.root_public_key)
            session = client.connect(service)
            times = []
            for tx in transactions:
                _, elapsed, _ = client.pre_execute(service, session, [tx])
                times.append(elapsed)
            _report(level, times, time.time() - wall_started)

    print(f"\ntotal wall time: {time.time() - started:.0f}s")
    return 0


def _report(name: str, times_us: list[float], wall_s: float) -> None:
    ordered = sorted(times_us)
    mean = statistics.mean(times_us) / 1000
    p50 = ordered[len(ordered) // 2] / 1000
    p95 = ordered[int(len(ordered) * 0.95)] / 1000
    label = "geth" if name == "geth" else f"-{name}"
    print(f"{label:>10} {PAPER_MS[name]:>9.1f} {mean:>9.1f} {p50:>7.1f} "
          f"{p95:>7.1f} {wall_s:>7.0f}")


if __name__ == "__main__":
    raise SystemExit(main())
