"""perf-bench: before/after wall-clock comparison of the crypto/ORAM substrate.

The benchmark runs one deterministic ORAM workload twice over the
paper's cipher (AES-GCM):

* **baseline** — the frozen pre-optimization crypto
  (:class:`~repro.perf.reference.ReferenceAesGcm`, block-at-a-time CTR,
  per-byte XOR) with decrypt memoization disabled: the substrate exactly
  as the repo shipped it before the ``repro.perf`` pass;
* **optimized** — the current :class:`~repro.crypto.suite.AesGcmAead`
  (vectorized batch keystreams, table-local GHASH) with the decrypt
  memo enabled.

Because the optimizations are exact rewrites, both sides must produce
**byte-identical simulated outputs** — the read plaintexts, the
ciphertext tree the SP stores, and the adversary-visible
:class:`~repro.oram.server.PathAccessEvent` stream are digested and
compared, and any mismatch fails the bench regardless of speedup.

Each side runs under :mod:`cProfile`; per-function time is attributed to
the telemetry critical-path layers (``encryption``, ``oram_storage``,
``execution``, ``other``) by source path, so the report shows *where*
the time went, not just how much.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import time
from dataclasses import dataclass, field

from repro.crypto.kdf import Drbg
from repro.crypto.suite import AesGcmAead
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer, PathAccessEvent
from repro.perf.reference import ReferenceAesGcm

# Source-path → telemetry critical-path layer.  Order matters: first
# match wins (the keccak/ecc/trie buckets before the generic crypto
# rule, crypto before oram since the ORAM client calls into it).
_LAYER_RULES = (
    ("/crypto/keccak", "keccak"),  # sponge + lane-wise engines
    ("/crypto/ecc", "ecdsa"),
    ("/trie/", "trie"),
    ("/crypto/", "encryption"),
    ("/perf/", "encryption"),  # memo + batch dispatch sit on the crypto path
    ("/oram/", "oram_storage"),
    ("/evm/", "execution"),
    ("/hardware/", "execution"),
)


def _layer_for(filename: str) -> str:
    normalized = filename.replace("\\", "/")
    for needle, layer in _LAYER_RULES:
        if needle in normalized:
            return layer
    return "other"


def _layer_seconds(profile: cProfile.Profile) -> dict[str, float]:
    """Self time per critical-path layer, by source path."""
    layer_seconds: dict[str, float] = {}
    stats = pstats.Stats(profile)
    for (filename, _line, _name), row in stats.stats.items():  # type: ignore[attr-defined]
        tottime = row[2]
        if tottime <= 0.0:
            continue
        layer = _layer_for(filename)
        layer_seconds[layer] = layer_seconds.get(layer, 0.0) + tottime
    return layer_seconds


BLOCK_SIZE = 1024
MEMO_BLOCKS = 4096


@dataclass
class PerfBenchConfig:
    """Workload shape for perf-bench (defaults run in a few seconds)."""

    seed: int = 7
    oram_height: int = 5
    accesses: int = 48
    working_set: int = 24
    min_speedup: float = 3.0
    # Shape of the trie/keccak/ECDSA workload each registered crypto
    # backend replays for the pairwise byte-identity gate.
    trie_keys: int = 96
    trie_commit_rounds: int = 4
    hash_batch: int = 600
    channel_messages: int = 12

    @classmethod
    def smoke(cls, **overrides) -> "PerfBenchConfig":
        """A CI-sized run: same checks, fraction of the wall clock."""
        defaults = dict(
            oram_height=4,
            accesses=16,
            working_set=8,
            trie_keys=32,
            trie_commit_rounds=2,
            hash_batch=160,
            channel_messages=6,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class SideResult:
    """One side (baseline or optimized) of the comparison."""

    name: str
    wall_s: float
    layer_seconds: dict[str, float]
    digests: dict[str, str]
    memo_hits: int = 0
    memo_misses: int = 0


@dataclass
class BackendSideResult:
    """One registered :class:`~repro.crypto.backend.CryptoBackend` tier's
    run of the trie/keccak/ECDSA workload."""

    backend: str
    wall_s: float
    layer_seconds: dict[str, float]
    digests: dict[str, str]
    keccak_hits: int = 0
    keccak_misses: int = 0


@dataclass
class PerfBenchReport:
    config: PerfBenchConfig
    baseline: SideResult
    optimized: SideResult
    identical: bool = False
    speedup: float = 0.0
    mismatches: list[str] = field(default_factory=list)
    # The per-CryptoBackend tier comparison: every registered backend
    # replays one seeded trie/keccak/ECDSA workload; all pairs must be
    # byte-identical and the best tier must clear the speedup gate
    # against the pure-Python reference.
    backends: list[BackendSideResult] = field(default_factory=list)
    backend_mismatches: list[str] = field(default_factory=list)
    backend_speedups: dict[str, float] = field(default_factory=dict)

    @property
    def backends_identical(self) -> bool:
        return not self.backend_mismatches

    @property
    def best_backend_speedup(self) -> float:
        return max(self.backend_speedups.values(), default=0.0)

    @property
    def gate_failures(self) -> list[str]:
        """Why the bench failed: the first tripped gate, or nothing."""
        gate = self.config.min_speedup
        if not self.identical:
            return ["optimized outputs diverge from baseline"]
        if self.speedup < gate:
            return [f"speedup {self.speedup:.1f}x below the "
                    f"{gate:g}x regression gate"]
        if not self.backends_identical:
            return ["crypto backends diverge pairwise "
                    f"({', '.join(self.backend_mismatches)})"]
        if self.backends and self.best_backend_speedup < gate:
            return [f"best backend speedup {self.best_backend_speedup:.1f}x "
                    f"below the {gate:g}x gate"]
        return []

    @property
    def passed(self) -> bool:
        return not self.gate_failures

    def summary_lines(self) -> list[str]:
        lines = [
            f"perf-bench: {self.config.accesses} ORAM accesses, "
            f"height {self.config.oram_height}, "
            f"{BLOCK_SIZE} B blocks, AES-GCM",
            f"  baseline  (reference crypto, no memo): "
            f"{self.baseline.wall_s:8.3f} s",
            f"  optimized (batch crypto + memo):       "
            f"{self.optimized.wall_s:8.3f} s",
            f"  speedup: {self.speedup:.1f}x "
            f"(gate: >= {self.config.min_speedup:g}x)",
            f"  outputs byte-identical: {'yes' if self.identical else 'NO'}"
            + (f" (mismatched: {', '.join(self.mismatches)})"
               if self.mismatches else ""),
            f"  decrypt memo: {self.optimized.memo_hits} hits / "
            f"{self.optimized.memo_misses} misses",
            "  profile attribution (seconds by critical-path layer):",
        ]
        layers = sorted(
            set(self.baseline.layer_seconds) | set(self.optimized.layer_seconds)
        )
        for layer in layers:
            before = self.baseline.layer_seconds.get(layer, 0.0)
            after = self.optimized.layer_seconds.get(layer, 0.0)
            lines.append(f"    {layer:<14} {before:8.3f} -> {after:8.3f}")
        if self.backends:
            lines.append(
                f"  crypto backends ({self.config.trie_keys} trie keys x "
                f"{self.config.trie_commit_rounds} commits, "
                f"{self.config.hash_batch} batch hashes, "
                f"{self.config.channel_messages} signed messages):"
            )
            for side in self.backends:
                speedup = self.backend_speedups.get(side.backend, 1.0)
                lines.append(
                    f"    {side.backend:<10} {side.wall_s:8.3f} s "
                    f"({speedup:5.1f}x vs reference)"
                )
            lines.append(
                "  backend outputs pairwise byte-identical: "
                + ("yes" if self.backends_identical else "NO")
                + (
                    f" (mismatched: {', '.join(self.backend_mismatches)})"
                    if self.backend_mismatches
                    else ""
                )
            )
        return lines

    def to_json(self) -> str:
        def measured(result: SideResult | BackendSideResult) -> dict:
            return {
                "wall_s": round(result.wall_s, 4),
                "layer_seconds": {
                    layer: round(seconds, 4)
                    for layer, seconds in sorted(result.layer_seconds.items())
                },
                "digests": result.digests,
            }

        def side(result: SideResult) -> dict:
            return {
                **measured(result),
                "memo_hits": result.memo_hits,
                "memo_misses": result.memo_misses,
            }

        def backend_side(result: BackendSideResult) -> dict:
            return {
                "backend": result.backend,
                **measured(result),
                "keccak_hits": result.keccak_hits,
                "keccak_misses": result.keccak_misses,
            }

        return json.dumps(
            {
                "bench": "perf",
                "workload": {
                    "seed": self.config.seed,
                    "oram_height": self.config.oram_height,
                    "block_size": BLOCK_SIZE,
                    "accesses": self.config.accesses,
                    "working_set": self.config.working_set,
                    "memo_blocks": MEMO_BLOCKS,
                    "cipher": "aes-gcm",
                    "trie_keys": self.config.trie_keys,
                    "trie_commit_rounds": self.config.trie_commit_rounds,
                    "hash_batch": self.config.hash_batch,
                    "channel_messages": self.config.channel_messages,
                },
                "baseline": side(self.baseline),
                "optimized": side(self.optimized),
                "speedup": round(self.speedup, 2),
                "min_speedup": self.config.min_speedup,
                "identical_outputs": self.identical,
                "backends": [backend_side(b) for b in self.backends],
                "backend_speedups": {
                    name: round(value, 2)
                    for name, value in sorted(self.backend_speedups.items())
                },
                "backends_identical": self.backends_identical,
                "passed": self.passed,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"


def _workload(config: PerfBenchConfig) -> list[tuple[bytes, bytes | None]]:
    """The deterministic access sequence both sides replay."""
    rng = Drbg(config.seed.to_bytes(8, "big"), personalization=b"perf-bench")
    ops: list[tuple[bytes, bytes | None]] = []
    for index in range(config.accesses):
        key = b"blk-%04d" % rng.randint(config.working_set)
        if index % 3 != 2:
            payload = bytes([rng.randint(256)]) * min(BLOCK_SIZE, 128)
            ops.append((key, payload))
        else:
            ops.append((key, None))
    return ops


def _digest_events(events: list[PathAccessEvent]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for event in events:
        digest.update(event.op_index.to_bytes(8, "big"))
        digest.update(event.leaf.to_bytes(8, "big"))
        for node in event.node_indices:
            digest.update(node.to_bytes(8, "big"))
        digest.update(repr(event.sim_time_us).encode())
    return digest.hexdigest()


def _digest_server(server: OramServer) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for node, bucket in enumerate(server._buckets):
        digest.update(node.to_bytes(8, "big"))
        for blob in bucket:
            digest.update(blob)
    return digest.hexdigest()


def _run_side(config: PerfBenchConfig, optimized: bool) -> SideResult:
    key = hashlib.blake2b(
        config.seed.to_bytes(8, "big"), digest_size=32, person=b"perf-key"
    ).digest()
    server = OramServer(height=config.oram_height)
    events: list[PathAccessEvent] = []
    server.add_observer(events.append)
    client = PathOramClient(
        server,
        key,
        block_size=BLOCK_SIZE,
        cipher_factory=AesGcmAead if optimized else ReferenceAesGcm,
        decrypt_memo_blocks=MEMO_BLOCKS if optimized else None,
    )
    ops = _workload(config)

    reads = hashlib.blake2b(digest_size=16)
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.enable()
    for access_key, payload in ops:
        result = client.access(access_key, payload)
        reads.update(result if result is not None else b"\x00")
    profile.disable()
    wall_s = time.perf_counter() - started

    return SideResult(
        name="optimized" if optimized else "baseline",
        wall_s=wall_s,
        layer_seconds=_layer_seconds(profile),
        digests={
            "reads": reads.hexdigest(),
            "server_buckets": _digest_server(server),
            "access_events": _digest_events(events),
        },
        memo_hits=client.memo.stats.hits if client.memo else 0,
        memo_misses=client.memo.stats.misses if client.memo else 0,
    )


def _run_backend_side(config: PerfBenchConfig, name: str) -> BackendSideResult:
    """Replay the seeded trie/keccak/ECDSA workload under one backend.

    Signing and sealing run *untimed*: RFC 6979 signing is the same
    deterministic pure-Python code under every tier, so timing it would
    only dilute the measured difference.  The timed region is what the
    tiers actually accelerate — trie commits, batch hashing, and
    signature-checked channel opens.
    """
    from repro.crypto.backend import activate, active_backend
    from repro.crypto.ecc import PrivateKey
    from repro.crypto.keccak import (
        keccak256_many,
        keccak_memo_stats,
        reset_keccak_memo,
    )
    from repro.hypervisor.channel import SecureChannel
    from repro.trie.mpt import MerklePatriciaTrie

    previous = active_backend().name
    activate(name)
    # Each tier starts memo-cold so cached digests from an earlier tier
    # can't subsidize (or mask a divergence in) this one.
    reset_keccak_memo()
    try:
        rng = Drbg(config.seed.to_bytes(8, "big"), personalization=b"perf-backend")
        pairs = [
            (
                b"acct-%06d" % rng.randint(1 << 20),
                bytes([rng.randint(256)]) * (1 + rng.randint(96)),
            )
            for _ in range(config.trie_keys)
        ]
        hash_items = [
            bytes([rng.randint(256)]) * (1 + rng.randint(200))
            for _ in range(config.hash_batch)
        ]
        payloads = [
            bytes([rng.randint(256)]) * (32 + rng.randint(160))
            for _ in range(config.channel_messages)
        ]

        # Untimed setup: channel construction (per-key verifier tables
        # are amortized precomputation) and seal/sign on the sender.
        session_key = hashlib.blake2b(
            config.seed.to_bytes(8, "big"), digest_size=32, person=b"bknd-key"
        ).digest()
        sealer_key = PrivateKey.from_bytes(b"\x11" * 31 + b"\x01")
        opener_key = PrivateKey.from_bytes(b"\x22" * 31 + b"\x02")
        sealer = SecureChannel(
            session_key, own_signing_key=sealer_key,
            peer_verify_key=opener_key.public_key(), backend=name,
        )
        opener = SecureChannel(
            session_key, own_signing_key=opener_key,
            peer_verify_key=sealer_key.public_key(), backend=name,
        )
        sealed = [sealer.seal(payload) for payload in payloads]

        trie = MerklePatriciaTrie()
        rounds = max(1, config.trie_commit_rounds)
        per_round = max(1, len(pairs) // rounds)
        roots: list[bytes] = []
        opened: list[bytes] = []

        profile = cProfile.Profile()
        started = time.perf_counter()
        profile.enable()
        for round_index in range(rounds):
            for key, value in pairs[round_index * per_round:(round_index + 1) * per_round]:
                trie.put(key, value)
            roots.append(trie.root_hash())
        batch_digests = keccak256_many(hash_items)
        half = len(sealed) // 2
        opened.extend(opener.open_batch(sealed[:half]))
        for message in sealed[half:]:
            opened.append(opener.open(message))
        profile.disable()
        wall_s = time.perf_counter() - started

        def digest(chunks: list[bytes]) -> str:
            acc = hashlib.blake2b(digest_size=16)
            for chunk in chunks:
                acc.update(len(chunk).to_bytes(4, "big"))
                acc.update(chunk)
            return acc.hexdigest()

        wire = [
            message.nonce + message.ciphertext + (
                message.signature.to_bytes() if message.signature else b""
            )
            for message in sealed
        ]
        memo = keccak_memo_stats()
        return BackendSideResult(
            backend=name,
            wall_s=wall_s,
            layer_seconds=_layer_seconds(profile),
            digests={
                "trie_roots": digest(roots),
                "batch_hashes": digest(batch_digests),
                "channel_wire": digest(wire),
                "channel_plaintexts": digest(opened),
            },
            keccak_hits=memo.hits,
            keccak_misses=memo.misses,
        )
    finally:
        activate(previous)


def _compare_backends(
    sides: list[BackendSideResult],
) -> tuple[list[str], dict[str, float]]:
    """Pairwise byte-identity mismatches and wall-clock speedups vs the
    pure-Python reference tier."""
    mismatches: list[str] = []
    for i, left in enumerate(sides):
        for right in sides[i + 1:]:
            for key in left.digests:
                if left.digests[key] != right.digests.get(key):
                    mismatches.append(
                        f"{left.backend} vs {right.backend}: {key}"
                    )
    reference = next(
        (side for side in sides if side.backend == "reference"), sides[0]
    )
    speedups = {
        side.backend: (
            reference.wall_s / side.wall_s if side.wall_s > 0 else float("inf")
        )
        for side in sides
    }
    return mismatches, speedups


def run_perf_bench(config: PerfBenchConfig | None = None) -> PerfBenchReport:
    from repro.crypto.backend import available_backends

    config = config or PerfBenchConfig()
    baseline = _run_side(config, optimized=False)
    optimized = _run_side(config, optimized=True)
    mismatches = [
        name
        for name in baseline.digests
        if baseline.digests[name] != optimized.digests[name]
    ]
    speedup = (
        baseline.wall_s / optimized.wall_s if optimized.wall_s > 0 else float("inf")
    )
    backend_sides = [
        _run_backend_side(config, name) for name in available_backends()
    ]
    backend_mismatches, backend_speedups = _compare_backends(backend_sides)
    return PerfBenchReport(
        config=config,
        baseline=baseline,
        optimized=optimized,
        identical=not mismatches,
        speedup=speedup,
        mismatches=mismatches,
        backends=backend_sides,
        backend_mismatches=backend_mismatches,
        backend_speedups=backend_speedups,
    )
