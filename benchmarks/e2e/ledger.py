"""The ledger's arithmetic: repetitions and spans in, named metrics out.

Which metric is end-to-end (gated by a bound) and which is per-layer
is decided by ``BENCHMARK.json`` alone: this module computes every
metric by name and :func:`select` picks the declared ones with their
declared units, so demoting a metric is a one-line move in that file
and the smoke test catches any name the two sides disagree on.

Two clocks, never mixed: ``*_wall_*``, ``*_per_s``, ``*_ms_*`` and
``setup_s`` are host time (what the Python process costs); ``sim_*``
and ``*_sim_us_*`` are simulated time (what the modelled chip would
take, from ``SimClock``).  The untraced host times arrive already
scaled to reference speed (``workloads.Pace``); ``host.*`` carry the
unscaled readings.  Span times of the traced repetition are unscaled.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import resource
import statistics

ROOT = pathlib.Path(__file__).resolve().parents[2]
TIMED_PHASES = ("bundle", "connect", "suspend", "resume", "sync")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 under 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return ratio(q3 - q1, abs(median(values)))


# ----------------------------------------------------------------------
# Metrics from untraced repetitions
# ----------------------------------------------------------------------


def untraced_metrics(reps) -> dict[str, list[float]]:
    """Per-repetition samples of every host- and simulated-time metric.

    The reported value of a metric is the median of its samples; one
    sample per repetition, except where noted.
    """
    pooled = sorted(ms for rep in reps for ms in rep.bundle_ms)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(len(rep.failures) for rep in reps)
    return {
        "setup_s": [rep.setup_s for rep in reps],
        "bundle_wall_ms_p50": [median(rep.bundle_ms) for rep in reps],
        "op_wall_ms_p50": [median(rep.op_ms) for rep in reps],
        "bundles_per_s": [ratio(len(rep.bundle_ms), rep.timed_s) for rep in reps],
        "sim_us_per_bundle_p50": [median(rep.sim_us) for rep in reps],
        # One sample per process: the high-water mark only ever rises.
        "peak_rss_mb": [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ],
        # Pooled over the repetitions: p90 is the highest percentile
        # with at least ten samples beyond it at 3 x 40 bundles.
        "bundle_wall_ms_p90": [
            pooled[min(len(pooled) - 1, int(0.9 * len(pooled)))] if pooled else 0.0
        ],
        "failed_share": [ratio(failed, attempted)],
        # As measured, before scaling to reference speed (workloads.Pace).
        "host.speed_index": [median(rep.speeds) for rep in reps],
        "host.raw_setup_s": [rep.raw_setup_s for rep in reps],
        "host.raw_bundles_per_s": [
            ratio(len(rep.bundle_ms), rep.raw_timed_s) for rep in reps
        ],
    }


# ----------------------------------------------------------------------
# Metrics from the traced repetition
# ----------------------------------------------------------------------


def traced_metrics(rep, recorder, untraced_timed_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced repetition.

    ``*_self_*`` metrics are self time (children subtracted), so they
    add up to the wall; the others are inclusive of what they call.
    """
    bundles = len(rep.bundle_ms)
    self_s = recorder.totals("bundle")

    def self_ms_per_bundle(*names: str) -> float:
        return ratio(sum(self_s.get(name, 0.0) for name in names) * 1e3, bundles)

    def inclusive(names, phase="bundle") -> list[tuple[int, float]]:
        return recorder.outermost(names if isinstance(names, tuple) else (names,), phase)

    def ms_per_bundle(names) -> float:
        return ratio(sum(s for _, s in inclusive(names)) * 1e3, bundles)

    def ms_p50(names, phase: str) -> float:
        per_request: dict[int, float] = {}
        for request, seconds in inclusive(names, phase):
            per_request[request] = per_request.get(request, 0.0) + seconds
        return median(list(per_request.values())) * 1e3

    blocks = len(inclusive("core.sync_new_blocks", "sync"))
    sessions = len(inclusive("core.connect", "connect"))

    def ms_per_block(names, phase="sync", self_time=False) -> float:
        if self_time:
            total = sum(recorder.totals(phase).get(name, 0.0) for name in names)
        else:
            total = sum(s for _, s in inclusive(names, phase))
        return ratio(total * 1e3, blocks)

    counters = rep.counters
    accesses = counters["oram_accesses"]
    evm_self_s = self_s.get("evm.execute", 0.0)
    roots = [
        (span, self_time)
        for span, self_time in zip(recorder.spans, recorder.self_times())
        if span[0].startswith("bench.") and span[5] in TIMED_PHASES
    ]
    return {
        "serving.self_ms_per_bundle": self_ms_per_bundle("serving.submit", "serving.drain"),
        "serving.queue_wait_sim_us_p50": rep.queue_wait_sim_us_p50,
        "serving.shed_count": rep.shed_count,
        "core.submit_self_ms_per_bundle": self_ms_per_bundle("core.submit_bundle"),
        "core.connect_ms_p50": ms_p50("core.connect", "connect"),
        "core.suspend_ms_p50": ms_p50("core.suspend", "suspend"),
        "core.resume_ms_p50": ms_p50("core.resume", "resume"),
        "core.sync_self_ms_per_block": ms_per_block(("core.sync_new_blocks",), self_time=True),
        "hypervisor.submit_self_ms_per_bundle": self_ms_per_bundle("hypervisor.submit_bundle"),
        "hypervisor.channel_seal_ms_per_bundle": ms_per_bundle("hypervisor.channel_seal"),
        "hypervisor.channel_open_ms_per_bundle": ms_per_bundle("hypervisor.channel_open"),
        "hypervisor.codec_ms_per_bundle": ms_per_bundle("hypervisor.codec"),
        "hypervisor.receipt_audit_ms_per_bundle": ms_per_bundle("hypervisor.receipt_audit"),
        "hypervisor.attest_ms_p50": ms_p50(
            ("hypervisor.begin_attestation", "hypervisor.establish_session"), "connect"
        ),
        "hypervisor.ticket_ms_p50": (
            ms_p50("hypervisor.mint_ticket", "suspend")
            + ms_p50("hypervisor.resume_session", "resume")
        ),
        "hypervisor.sync_apply_self_ms_per_block": ms_per_block(
            ("hypervisor.sync_apply",), self_time=True
        ),
        "hardware.run_bundle_self_ms_per_bundle": self_ms_per_bundle("hardware.run_bundle"),
        "hardware.l1_miss_ratio": ratio(rep.l1_misses, rep.l1_hits + rep.l1_misses),
        "hardware.swap_sim_us_per_bundle": ratio(rep.swap_sim_us, bundles),
        "evm.execute_self_ms_per_bundle": self_ms_per_bundle("evm.execute"),
        "evm.gas_per_bundle": ratio(rep.gas, bundles),
        "evm.us_per_kgas": ratio(evm_self_s * 1e6, rep.gas / 1000.0),
        "oram.access_self_ms_per_bundle": self_ms_per_bundle("oram.access"),
        "oram.server_ms_per_bundle": ms_per_bundle("oram.server"),
        "oram.accesses_per_bundle": ratio(accesses, bundles),
        "oram.blocks_decrypted_per_access": ratio(counters["blocks_decrypted"], accesses),
        "oram.blocks_encrypted_per_access": ratio(counters["blocks_encrypted"], accesses),
        "oram.decrypt_memo_hit_ratio": ratio(
            counters["memo_hits"], counters["memo_hits"] + counters["memo_misses"]
        ),
        "oram.max_stash_blocks": rep.max_stash_blocks,
        "oram.sync_write_ms_per_block": ms_per_block(("oram.sync_account",)),
        "crypto.aead_ms_per_bundle": ms_per_bundle("crypto.aead"),
        "crypto.ecdsa_sign_ms_per_bundle": ms_per_bundle("crypto.ecdsa_sign"),
        "crypto.ecdsa_verify_ms_per_bundle": ms_per_bundle("crypto.ecdsa_verify"),
        "crypto.ecdsa_signs_per_bundle": ratio(len(inclusive("crypto.ecdsa_sign")), bundles),
        "crypto.ecdsa_verifies_per_bundle": ratio(len(inclusive("crypto.ecdsa_verify")), bundles),
        "crypto.keccak_misses_per_bundle": ratio(counters["keccak_misses"], bundles),
        "crypto.keccak_memo_hit_ratio": ratio(
            counters["keccak_hits"], counters["keccak_hits"] + counters["keccak_misses"]
        ),
        "crypto.ecdh_ms_per_session": ratio(
            sum(s for _, s in inclusive("crypto.ecdh", "connect")) * 1e3, sessions
        ),
        "trie.verify_proof_ms_per_block": ms_per_block(("trie.verify_proof",)),
        "trie.root_hash_ms_per_block": ms_per_block(("trie.root_hash",), phase="node"),
        "node.add_block_ms_p50": ms_p50("node.add_block", "node"),
        "bench.trace_overhead_ratio": ratio(rep.timed_s, untraced_timed_s),
        # Time in a request's root span that no layer's span covers.
        "other.unattributed_share": ratio(
            sum(self_time for _, self_time in roots),
            sum(span[2] - span[1] for span, _ in roots),
        ),
    }


# Traced metrics measured on one workload only; they read 0 elsewhere.
ONE_WORKLOAD_ONLY = (
    "telemetry.armed_wall_ratio",       # evalset_full
    "sharding.page_read_ms_p50",        # sync_beside_reads
    "sharding.sync_account_ms_p50",     # sync_beside_reads
    "oram.page_read_ms_p50",            # sync_beside_reads
)


def select(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """The declared ``kind`` metrics, with declared units, in declared order.

    A declared name nobody computed is a ``KeyError`` here; a computed
    name nobody declared is caught by :func:`check_declared`.
    """
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared()[kind]
    }


def check_declared(values: dict[str, float]) -> None:
    names = {
        entry["name"]
        for kind in ("end_to_end", "per_layer")
        for entry in declared()[kind]
    }
    undeclared = sorted(set(values) - names)
    if undeclared:
        raise RuntimeError(
            f"computed but not declared in BENCHMARK.json: {undeclared}"
        )


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------


def _git_commit() -> str:
    """HEAD's commit, read from ``.git`` (the driver's checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, seconds: float) -> dict:
    import numpy

    from repro.crypto.backend import active_backend
    from repro.crypto.suite import HAVE_OPENSSL_AESGCM

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography_importable": HAVE_OPENSSL_AESGCM,
        "crypto_tier": active_backend().name,
        "seed": seed,
        "seconds": seconds,
        "git_commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def compare(base: dict, other: dict) -> tuple[list[str], str]:
    """Per workload x end-to-end metric: medians, ratio, bound, verdict.

    ``regressed``: the other median is worse than the base's by more
    than the bound.  ``unresolved``: the spread between repetitions is
    wider than the bound, unless every repetition of the other side
    reads better than every one of the base.  Equal seeds must also
    agree on every ``sim_digest``: nothing simulated may change.
    """
    entries = {entry["name"]: entry for entry in declared()["end_to_end"]}
    lines = [
        f"{'workload':<18} {'metric':<22} {'base':>12} {'other':>12} "
        f"{'other/base':>10} {'bound':>6}  verdict"
    ]
    verdicts = set()
    same_seed = base["environment"]["seed"] == other["environment"]["seed"]
    for name, base_run in base["workloads"].items():
        other_run = other["workloads"].get(name)
        if other_run is None:
            continue
        if same_seed and base_run["sim_digest"] != other_run["sim_digest"]:
            lines.append(f"{name:<18} sim_digest differs at equal seeds: regressed")
            verdicts.add("regressed")
        for metric, entry in entries.items():
            a = base_run["end_to_end"][metric]
            b = other_run["end_to_end"][metric]
            sign = 1.0 if entry["better"] == "lower" else -1.0
            worse_by = sign * ratio(b["value"] - a["value"], abs(a["value"]))
            wide = max(spread(a["samples"]), spread(b["samples"])) > entry["bound"]
            b_all_better = max(sign * v for v in b["samples"]) < min(
                sign * v for v in a["samples"]
            )
            if wide and not b_all_better:
                verdict = "unresolved"
            elif worse_by > entry["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            verdicts.add(verdict)
            lines.append(
                f"{name:<18} {metric:<22} {a['value']:>12.4f} {b['value']:>12.4f} "
                f"{ratio(b['value'], a['value']):>10.4f} {entry['bound']:>6.2f}  "
                f"{verdict} ({entry['unit']}, {entry['better']} is better)"
            )
    for verdict in ("regressed", "unresolved"):
        if verdict in verdicts:
            return lines, verdict
    return lines, "ok"
