"""The e2e benchmark: host time and simulated time of the real pipeline.

    python3 benchmarks/e2e/run.py --seed 1                  # all workloads, untraced + traced
    python3 benchmarks/e2e/run.py --workload evalset_full --seed 1 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every run builds the real stack (workloads -> node -> HarDTAPEService
-> Gateway -> SecureChannel/Hypervisor -> HevmCore -> evm -> oram ->
trie -> receipts), checks every reply against ``repro.node`` ground
truth, and prints every metric by name with its unit.  With
``--workload`` the last line of standard output is one JSON object:
the end-to-end metrics for ``--trace 0``, the per-layer ones for
``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# This directory must not be importable by bare name: ``trace.py``
# would shadow the standard library's ``trace``.  The benchmark's
# modules are imported as ``benchmarks.e2e.*`` from the checkout root.
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
    entry for entry in sys.path if pathlib.Path(entry or ".").resolve() != HERE
]

SMOKE_SECONDS = 1.5


def measure(names, seed: int, seconds: float, repetitions: int, traced: bool) -> dict:
    """Run the named workloads; returns the result-file dictionary."""
    from benchmarks.e2e import ledger
    from benchmarks.e2e.workloads import WORKLOADS, run_repetition

    worlds: dict = {}
    prepared = {
        name: WORKLOADS[name].prepare(seed, seconds, worlds) for name in names
    }
    reps = {name: [] for name in names}
    # Round-robin across workloads: this box's speed drifts over tens of
    # seconds, and interleaving lets every workload see every phase of it.
    for _ in range(repetitions):
        for name in names:
            reps[name].append(run_repetition(prepared[name])[0])

    runs = {}
    for name in names:
        samples = ledger.untraced_metrics(reps[name])
        samples["world_build_s"] = [prepared[name].prepare_s]
        values = {metric: ledger.median(s) for metric, s in samples.items()}
        digests = [rep.sim_digest for rep in reps[name]]
        failures = [f for rep in reps[name] for f in rep.failures]
        attempted = sum(rep.attempted for rep in reps[name])
        run = {
            "why": WORKLOADS[name].why,
            "operation": WORKLOADS[name].operation,
            "repetitions": repetitions,
            "bundles_per_repetition": len(reps[name][0].bundle_ms),
            "operations_per_repetition": len(reps[name][0].op_ms),
        }
        if traced:
            traced_rep, traced_values, extra_digests = traced_repetition(
                prepared[name], ledger.median([r.timed_s for r in reps[name]])
            )
            values.update(traced_values)
            ledger.check_declared(values)
            digests += [traced_rep.sim_digest] + extra_digests
            failures += traced_rep.failures
            attempted += traced_rep.attempted
            run["per_layer"] = ledger.select("per_layer", values)
        run["end_to_end"] = {
            metric: {**entry, "samples": samples[metric]}
            for metric, entry in ledger.select("end_to_end", values).items()
        }
        run.update(
            attempted=attempted,
            failed=len(failures),
            failures=failures[:10],
            sim_digest=digests[0],
            sim_digests_agree=len(set(digests)) == 1,
            sim_digests=digests,
        )
        runs[name] = run
    return {"environment": ledger.environment(seed, seconds), "workloads": runs}


def traced_repetition(prepared, untraced_timed_s: float):
    """One repetition under the span wrappers, plus the one-workload extras."""
    from benchmarks.e2e import ledger
    from benchmarks.e2e.trace import SpanRecorder
    from benchmarks.e2e.workloads import run_repetition

    recorder = SpanRecorder()
    tally = [0, 0, 0.0]

    def on_run_bundle(result) -> None:
        if recorder.phase == "bundle":
            _, breakdowns, stats, _ = result
            tally[0] += stats.l1_ws_hits
            tally[1] += stats.l1_ws_misses
            tally[2] += sum(breakdown.swap_us for breakdown in breakdowns)

    recorder.observe("hardware.run_bundle", on_run_bundle)
    recorder.install()
    try:
        rep, stack = run_repetition(prepared, recorder)
    finally:
        recorder.uninstall()
    rep.l1_hits, rep.l1_misses, rep.swap_sim_us = tally
    values = dict.fromkeys(ledger.ONE_WORKLOAD_ONLY, 0.0)
    values.update(ledger.traced_metrics(rep, recorder, untraced_timed_s))
    extras, extra_reps = prepared.workload.traced_extras(
        prepared, stack, untraced_timed_s
    )
    values.update(extras)
    for extra in extra_reps:
        rep.failures += extra.failures
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    recorder.dump(results / f"trace_{prepared.workload.name}.json")
    return rep, values, [extra.sim_digest for extra in extra_reps]


def report(result: dict) -> None:
    env = result["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, run in result["workloads"].items():
        agree = "agree" if run["sim_digests_agree"] else "DISAGREE"
        print(
            f"\n== {name}: {run['repetitions']} repetitions x "
            f"{run['bundles_per_repetition']} bundles "
            f"({run['operations_per_repetition']} {run['operation']} operations), "
            f"attempted {run['attempted']}, failed {run['failed']}"
        )
        print(f"   sim_digest {run['sim_digest']} ({len(run['sim_digests'])} {agree})")
        for failure in run["failures"]:
            print(f"   FAILED {failure}")
        print("   end-to-end (median of per-repetition samples)")
        for metric, entry in run["end_to_end"].items():
            samples = ", ".join(f"{s:.4g}" for s in entry["samples"])
            print(
                f"     {metric:<40} {entry['value']:>14.4f} {entry['unit']:<8}"
                f" n={len(entry['samples'])} [{samples}]"
            )
        if "per_layer" in run:
            print("   per-layer (one traced repetition)")
            for metric, entry in run["per_layer"].items():
                print(f"     {metric:<40} {entry['value']:>14.4f} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and end with the JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measured seconds per run (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced repetitions only; 1: one untraced, "
                             "one traced; default: all of both")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at a tenth of the size, one repetition")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "OTHER"))
    args = parser.parse_args(argv)

    try:
        from benchmarks.e2e import ledger
        from benchmarks.e2e.workloads import NOMINAL_SECONDS, REPETITIONS, WORKLOADS
    except ImportError as exc:
        # E.g. a directory holding the benchmark but not the program.
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 1

    if args.compare:
        base, other = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
        lines, verdict = ledger.compare(base, other)
        print("\n".join(lines))
        print(f"verdict: {verdict} (ratios are other/base; base is {args.compare[0]})")
        return {"ok": 0, "regressed": 1, "unresolved": 2}[verdict]

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else NOMINAL_SECONDS)
    repetitions = 1 if args.smoke or args.trace == 1 else REPETITIONS
    result = measure(names, args.seed, seconds, repetitions, traced=args.trace != 0)
    report(result)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")

    runs = result["workloads"].values()
    correct = all(run["failed"] == 0 and run["sim_digests_agree"] for run in runs)
    if args.workload:
        run = result["workloads"][args.workload]
        metrics = run["per_layer"] if args.trace == 1 else run["end_to_end"]
        print(json.dumps({
            "correct": correct,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {
                metric: {"value": entry["value"], "unit": entry["unit"]}
                for metric, entry in metrics.items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
