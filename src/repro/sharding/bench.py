"""The shard scale-out benchmark (``shard-bench``).

Three seeded, deterministic phases — the sharding plane's acceptance
gates:

1. **Identity** — the same seeded workload against the unsharded
   baseline (one ``ObliviousStateBackend`` over one path tree) and a
   **1-shard** fleet.  A single-shard ring routes every key to shard 0,
   whose client is built with the same derived key and parameters, so
   the runs must be byte-identical: same Chrome trace JSON, same
   metrics snapshot, same ORAM wire trace (leaf sequence + final tree
   ciphertext), same logical world-state digest.
2. **Scale-out** — the workload across 1/2/4/8 shards.  Page accesses
   are independent single-page ORAM queries, so shard servers work in
   parallel; aggregate throughput is total queries over the *makespan*
   (the busiest shard's CPU time).  Gate: ≥ ``min_speedup``× at the
   largest fleet vs one shard — consistent-hash balance is what makes
   or breaks this, which is exactly why it is measured, not assumed.
3. **Per-shard distinguisher** — at the largest fleet, every shard's
   physical leaf trace is attacked separately (the idiom of
   ``bench_security_distinguisher``): frequency-rank matching must
   de-anonymize nothing, and the leaf histogram must pass chi-square
   uniformity.  Sharding must not create a *smaller* anonymity set
   whose skew an adversary could read.

Everything runs on one host process over virtual time; throughput is
the simulated fleet's, not the host's.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass, field

from repro.bench.report import GateReport, identity_verdict
from repro.bench.stack import (
    compare_identity,
    content_digest,
    metrics_hash,
    trace_hash,
    traced,
)
from repro.crypto.kdf import Drbg
from repro.hardware.timing import SimClock
from repro.oram import paging
from repro.oram.adapter import ObliviousStateBackend
from repro.oram.store import build_client, build_server
from repro.security.analysis import frequency_attack, path_uniformity_pvalue
from repro.security.observer import AccessPatternObserver
from repro.serving.metrics import MetricsRegistry
from repro.sharding.backend import (
    ShardedObliviousStateBackend,
    ShardedOramConfig,
    ShardedOramFleet,
    shard_key,
)
from repro.sharding.ring import ConsistentHashRing
from repro.state.account import Account, Address
from repro.state.backend import CODE_PAGE_SIZE, STORAGE_GROUP_SIZE
from repro.telemetry.tracer import TraceSampler

_READ_KINDS = ("meta", "storage", "code")

SHARD_COUNTS = (1, 2, 4, 8)
MAX_SHARDS = max(SHARD_COUNTS)
STORAGE_GROUPS_PER_ACCOUNT = 2
SLOTS_PER_GROUP = 4
CODE_PAGES_PER_ACCOUNT = 2
# A hot subset keeps the workload honestly skewed (hot contracts), the
# regime where balance and obliviousness are hardest.
HOT_ACCOUNTS = 8
HOT_PERCENT = 30
# 256 vnodes keep the busiest of 8 shards under ~15% of the traffic
# even with the hot-account skew — the balance the 6x gate rides on.
VNODES = 256
READ_COST_US = 60.0  # virtual time the driver charges per read
MIN_SPEEDUP = 6.0
MIN_PVALUE = 0.01


@dataclass
class ShardBenchConfig:
    """One shard-bench invocation: world size and load shape."""

    seed: int = 1
    accounts: int = 64
    reads: int = 960
    oram_height: int = 8

    @classmethod
    def smoke(cls, seed: int = 1) -> "ShardBenchConfig":
        """CI-sized: smaller world and fewer reads, same gates."""
        return cls(seed=seed, accounts=32, reads=480, oram_height=7)


def _master_key(config: ShardBenchConfig) -> bytes:
    return hashlib.sha256(b"hardtape-shard-bench|%d" % config.seed).digest()


def _build_accounts(config: ShardBenchConfig) -> dict[Address, Account]:
    """A deterministic world: every page's expected content is known."""
    accounts: dict[Address, Account] = {}
    for index in range(config.accounts):
        address = hashlib.blake2b(
            b"shardbench-acct-%d" % index, digest_size=20
        ).digest()
        storage: dict[int, int] = {}
        for group in range(STORAGE_GROUPS_PER_ACCOUNT):
            base = group * STORAGE_GROUP_SIZE
            for slot in range(SLOTS_PER_GROUP):
                storage[base + slot] = index * 100_000 + group * 1_000 + slot
        code_len = CODE_PAGES_PER_ACCOUNT * CODE_PAGE_SIZE - 64
        code = bytes((index + offset) % 251 for offset in range(code_len))
        accounts[address] = Account(
            balance=10**9 + index,
            nonce=index % 7,
            code=code,
            storage=storage,
        )
    return accounts


def _workload_page_keys(
    accounts: dict[Address, Account], config: ShardBenchConfig
) -> list[bytes]:
    keys: list[bytes] = []
    for address, account in accounts.items():
        keys.append(paging.account_page_key(address))
        for group in range(STORAGE_GROUPS_PER_ACCOUNT):
            keys.append(
                paging.storage_page_key(address, group * STORAGE_GROUP_SIZE)
            )
        for page in range(CODE_PAGES_PER_ACCOUNT):
            keys.append(paging.code_page_key(address, page))
    return keys


# ----------------------------------------------------------------------
# Wire tap: the SP's view, hashed in arrival order
# ----------------------------------------------------------------------

def _tap_server(hasher, shard_id: int, server) -> None:
    """Hash every adversary-visible access event as it happens."""

    def on_path(event) -> None:
        hasher.update(b"P" + shard_id.to_bytes(2, "big"))
        hasher.update(event.leaf.to_bytes(4, "big"))
        hasher.update(struct.pack(">d", event.sim_time_us))

    server.add_observer(on_path)


def _fold_ciphertext(hasher, shard_id: int, server) -> None:
    """Fold the final at-rest ciphertext into the wire hash."""
    hasher.update(b"T" + shard_id.to_bytes(2, "big"))
    for bucket in server.snapshot_tree():
        for blob in bucket:
            hasher.update(blob)


# ----------------------------------------------------------------------
# Logical world digest (merged across shards)
# ----------------------------------------------------------------------

def _world_digest(shards: dict[int, tuple]) -> str:
    """SHA-256 over the merged logical content of every shard."""
    content: dict[bytes, bytes] = {}
    for _shard_id, (client, server) in sorted(shards.items()):
        content.update(client.logical_content(server))
    return content_digest(content)


# ----------------------------------------------------------------------
# The driven workload
# ----------------------------------------------------------------------

def _drive_reads(
    backend,
    accounts: dict[Address, Account],
    config: ShardBenchConfig,
    clock: SimClock,
    tracer,
    registry: MetricsRegistry,
) -> int:
    """Seeded read mix with inline verification; returns mismatches."""
    rng = Drbg(config.seed.to_bytes(8, "big"), personalization=b"shard-bench")
    addresses = sorted(accounts)
    hot = addresses[: HOT_ACCOUNTS]
    mismatches = 0
    for _ in range(config.reads):
        if rng.randint(100) < HOT_PERCENT:
            address = hot[rng.randint(len(hot))]
        else:
            address = addresses[rng.randint(len(addresses))]
        account = accounts[address]
        choice = rng.randint(3)
        kind = _READ_KINDS[choice]
        with tracer.span("shard.read", "oram_storage", kind=kind):
            if choice == 0:
                ok = backend.get_meta(address).balance == account.balance
            elif choice == 1:
                group = rng.randint(STORAGE_GROUPS_PER_ACCOUNT)
                slot = group * STORAGE_GROUP_SIZE + rng.randint(
                    SLOTS_PER_GROUP
                )
                ok = backend.get_storage(address, slot) == account.storage[slot]
            else:
                page_index = rng.randint(CODE_PAGES_PER_ACCOUNT)
                expected = account.code[
                    page_index * CODE_PAGE_SIZE:(page_index + 1) * CODE_PAGE_SIZE
                ].ljust(CODE_PAGE_SIZE, b"\x00")
                ok = backend.get_code_page(address, page_index) == expected
            clock.advance_us(READ_COST_US)
        registry.counter("shardbench.reads", kind=kind).inc()
        if not ok:
            mismatches += 1
    registry.histogram("shardbench.virtual_us").observe(clock.now_us)
    return mismatches


@dataclass
class _RunArtifacts:
    """What one run leaves behind for the gates."""

    hashes: dict[str, str]
    mismatches: int
    total_queries: int
    makespan_us: float
    per_shard_queries: dict[int, int]
    leaves_by_shard: dict[int, list[int]] = field(default_factory=dict)
    page_frequency: Counter = field(default_factory=Counter)

    @property
    def aggregate_tps(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return self.total_queries / (self.makespan_us / 1e6)

    @property
    def max_share(self) -> float:
        if self.total_queries == 0:
            return 0.0
        return max(self.per_shard_queries.values()) / self.total_queries


def _collect(
    tracer, registry, wire, shards: dict[int, tuple], mismatches: int, **traces
) -> _RunArtifacts:
    """Fold a finished run over ``shards`` (id -> (client, server))."""
    for shard_id, (_client, server) in sorted(shards.items()):
        _fold_ciphertext(wire, shard_id, server)
    queries = {
        shard_id: server.stats.reads
        for shard_id, (_client, server) in sorted(shards.items())
    }
    return _RunArtifacts(
        hashes={
            "trace_hash": trace_hash(tracer),
            "metrics_hash": metrics_hash(registry),
            "wire_hash": wire.hexdigest(),
            "digest": _world_digest(shards),
        },
        mismatches=mismatches,
        total_queries=sum(queries.values()),
        makespan_us=max(
            server.stats.busy_time_us for _client, server in shards.values()
        ),
        per_shard_queries=queries,
        **traces,
    )


def _run_unsharded(config: ShardBenchConfig) -> _RunArtifacts:
    """The baseline: one path tree, shard-0 key, no ring anywhere."""
    clock = SimClock()
    registry = MetricsRegistry()
    wire = hashlib.sha256()
    with traced(clock, TraceSampler(1.0, config.seed)) as tracer:
        server = build_server(height=config.oram_height)
        _tap_server(wire, 0, server)
        client = build_client(server, shard_key(_master_key(config), 0))
        backend = ObliviousStateBackend(client, clock=lambda: clock.now_us)
        accounts = _build_accounts(config)
        backend.sync_world(accounts)
        mismatches = _drive_reads(backend, accounts, config, clock, tracer, registry)
    return _collect(tracer, registry, wire, {0: (client, server)}, mismatches)


def _run_fleet(config: ShardBenchConfig, shard_count: int) -> _RunArtifacts:
    """One sharded run; collects per-shard traces for the gates."""
    clock = SimClock()
    registry = MetricsRegistry()
    wire = hashlib.sha256()
    with traced(clock, TraceSampler(1.0, config.seed)) as tracer:
        fleet_config = ShardedOramConfig(
            shard_count=shard_count,
            oram_height=config.oram_height,
            vnodes=VNODES,
        )
        fleet = ShardedOramFleet(fleet_config, _master_key(config))
        observers: dict[int, AccessPatternObserver] = {}
        for shard_id, shard in sorted(fleet.shards.items()):
            _tap_server(wire, shard_id, shard.server)
            observers[shard_id] = AccessPatternObserver().attach(shard.server)
        backend = ShardedObliviousStateBackend(
            fleet, clock=lambda: clock.now_us
        )
        accounts = _build_accounts(config)
        backend.sync_world(accounts)
        for observer in observers.values():
            observer.clear()  # the distinguisher attacks the read phase
        read_log_start = len(backend.stats.log)
        mismatches = _drive_reads(backend, accounts, config, clock, tracer, registry)
    return _collect(
        tracer,
        registry,
        wire,
        {
            shard_id: (shard.client, shard.server)
            for shard_id, shard in fleet.shards.items()
        },
        mismatches,
        leaves_by_shard={
            shard_id: list(observer.leaves)
            for shard_id, observer in sorted(observers.items())
        },
        page_frequency=Counter(
            record.page_key for record in backend.stats.log[read_log_start:]
        ),
    )


# ----------------------------------------------------------------------
# Per-shard distinguisher (the bench_security_distinguisher idiom)
# ----------------------------------------------------------------------

def _distinguisher_rows(
    run: _RunArtifacts, config: ShardBenchConfig
) -> list[dict]:
    """Attack each shard's leaf trace separately.

    Truth per shard: that shard's page keys ranked by their true
    (driver-known) access frequency — the public knowledge a chain
    adversary holds.  The frequency attack maps leaf ranks onto it and
    must de-anonymize nothing; chi-square checks leaf uniformity.
    """
    leaf_count = 2 ** config.oram_height
    # Reconstruct shard ownership with the fleet's own (default) ring.
    ring = ConsistentHashRing(
        range(len(run.per_shard_queries)), vnodes=VNODES
    )
    by_shard: dict[int, list[tuple[int, bytes]]] = {
        shard_id: [] for shard_id in run.per_shard_queries
    }
    for page_key, count in run.page_frequency.items():
        by_shard[ring.shard_for(page_key)].append((count, page_key))
    rows = []
    for shard_id, leaves in sorted(run.leaves_by_shard.items()):
        ranking = [
            key
            for _count, key in sorted(
                by_shard[shard_id], key=lambda item: (-item[0], item[1])
            )
        ][:16]
        handles = [leaf.to_bytes(4, "big") for leaf in leaves]
        samples = len(leaves)
        bins = 8 if samples >= 40 else 4
        pvalue = (
            path_uniformity_pvalue(leaves, leaf_count, bins=bins)
            if samples >= bins * 5
            else 0.0
        )
        rows.append(
            {
                "shard": shard_id,
                "samples": samples,
                "frequency_accuracy": frequency_attack(handles, ranking),
                "uniformity_pvalue": pvalue,
                "bins": bins,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Report + gates
# ----------------------------------------------------------------------

@dataclass
class ShardBenchReport(GateReport):
    identity: dict[str, bool]
    baseline: dict
    scaleout: list[dict]
    speedup: float
    distinguisher: list[dict]
    ring: dict

    bench = "shard-scaleout"

    def section_lines(self) -> list[str]:
        lines = [
            "identity (unsharded vs 1-shard fleet, seeded): "
            + identity_verdict(self.identity),
        ]
        lines.append("| shards | queries | makespan (ms) | agg. tx/s | max share |")
        lines.append("|-------:|--------:|--------------:|----------:|----------:|")
        for row in self.scaleout:
            lines.append(
                f"| {row['shards']} | {row['total_queries']} "
                f"| {row['makespan_us'] / 1000:.2f} "
                f"| {row['aggregate_tps']:.0f} | {row['max_share']:.1%} |"
            )
        lines.append(
            f"speedup at {self.scaleout[-1]['shards']} shards: "
            f"{self.speedup:.2f}x (gate >= {self.ring['min_speedup']}x)"
        )
        worst = min(
            (row["uniformity_pvalue"] for row in self.distinguisher), default=1.0
        )
        lines.append(
            f"per-shard distinguisher: frequency accuracy "
            f"{max(row['frequency_accuracy'] for row in self.distinguisher):.2f}, "
            f"worst uniformity p-value {worst:.3f} across "
            f"{len(self.distinguisher)} shards"
        )
        lines.append(
            f"ring: {self.ring['pages']} pages, add-shard remap "
            f"{self.ring['remap_fraction']:.1%} "
            f"(~1/{self.ring['shards']} expected), "
            f"digest {self.ring['table_digest'][:12]}"
        )
        return lines


def run_shard_bench(config: ShardBenchConfig) -> ShardBenchReport:
    unsharded = _run_unsharded(config)
    # SHARD_COUNTS starts at 1: the 1-shard fleet is the identity anchor.
    runs = {count: _run_fleet(config, count) for count in SHARD_COUNTS}
    identity, failures = compare_identity(
        unsharded.hashes,
        runs[1].hashes,
        "identity: the 1-shard fleet changed the {name} bytes of the "
        "seeded baseline run",
    )

    scaleout = [
        {
            "shards": count,
            "total_queries": run.total_queries,
            "makespan_us": run.makespan_us,
            "aggregate_tps": run.aggregate_tps,
            "max_share": run.max_share,
            "per_shard_queries": {
                str(sid): queries for sid, queries in run.per_shard_queries.items()
            },
        }
        for count, run in runs.items()
    ]
    top = runs[MAX_SHARDS]
    speedup = top.aggregate_tps / runs[1].aggregate_tps if runs[1].aggregate_tps else 0.0
    distinguisher = _distinguisher_rows(top, config)

    # Ring movement: adding shard N to an (N-1)-shard ring moves ~1/N
    # of the workload's pages and nothing else (measured, not assumed).
    accounts = _build_accounts(config)
    pages = _workload_page_keys(accounts, config)
    big = ConsistentHashRing(range(MAX_SHARDS), vnodes=VNODES)
    small = big.without_shard(MAX_SHARDS - 1)
    moved = sum(1 for key in pages if big.shard_for(key) != small.shard_for(key))
    ring = {
        "shards": MAX_SHARDS,
        "vnodes": VNODES,
        "pages": len(pages),
        "remap_fraction": moved / len(pages),
        "table_digest": big.table_digest(),
        "min_speedup": MIN_SPEEDUP,
    }

    for count, run in runs.items():
        if run.mismatches:
            failures.append(
                f"{run.mismatches} read mismatch(es) at {count} shard(s)"
            )
    if unsharded.mismatches:
        failures.append(f"{unsharded.mismatches} read mismatch(es) unsharded")
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"aggregate speedup {speedup:.2f}x at {MAX_SHARDS} shards "
            f"is below the {MIN_SPEEDUP}x gate"
        )
    for row in distinguisher:
        if row["samples"] < 20:
            failures.append(
                f"shard {row['shard']}: only {row['samples']} leaf samples "
                f"(need >= 20 for the uniformity test)"
            )
            continue
        if row["frequency_accuracy"] > 0.0:
            failures.append(
                f"shard {row['shard']}: frequency attack de-anonymized "
                f"{row['frequency_accuracy']:.0%} of the ranking"
            )
        if row["uniformity_pvalue"] <= MIN_PVALUE:
            failures.append(
                f"shard {row['shard']}: leaf uniformity p-value "
                f"{row['uniformity_pvalue']:.4f} <= {MIN_PVALUE}"
            )
    if ring["remap_fraction"] > 2.5 / MAX_SHARDS:
        failures.append(
            f"ring remapped {ring['remap_fraction']:.1%} of pages on shard "
            f"add; bound is ~{1 / MAX_SHARDS:.1%} (2.5x tolerance)"
        )

    return ShardBenchReport(
        seed=config.seed,
        identity=identity,
        baseline={
            **unsharded.hashes,
            "total_queries": unsharded.total_queries,
            "makespan_us": unsharded.makespan_us,
            "aggregate_tps": unsharded.aggregate_tps,
        },
        scaleout=scaleout,
        speedup=speedup,
        distinguisher=distinguisher,
        ring=ring,
        gate_failures=failures,
    )


__all__ = [
    "ShardBenchConfig",
    "ShardBenchReport",
    "run_shard_bench",
]
