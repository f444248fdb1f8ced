"""perf-bench: the byte oracle for the crypto/ORAM performance substrate.

Two seeded workloads, digested:

* **ORAM** — one deterministic access sequence over the paper's cipher
  (AES-GCM through OpenSSL, the client's default, as on every served
  ORAM block) with the decrypt memo enabled.  The read
  plaintexts, the ciphertext tree the SP stores and the
  adversary-visible :class:`~repro.oram.server.PathAccessEvent` stream
  are digested, beside the memo's exact hit/miss counts.
* **Crypto** — one trie/keccak/ECDSA workload: trie commits, a batch
  of Keccak-256 digests and signed messages over the secure channel
  (OpenSSL AES-GCM and verification), digested beside the Keccak
  memo's exact hit/miss counts.

The report holds digests and exact counts only, so a seeded run
regenerates ``BENCH_perf.json`` byte for byte: a substrate rewrite is
exact iff that file is unchanged.  Host time is measured by the
``benchmarks/e2e`` ledger.

Three gates hold on any config: the opened channel plaintexts equal the
sealed payloads, every bucket the ORAM client opened is one memo hit or
one memo miss, and every access seals exactly one path, ``(height + 1)
x Z`` blocks.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

from repro.bench.report import GateReport
from repro.crypto.kdf import Drbg
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer, PathAccessEvent

BLOCK_SIZE = 1024
MEMO_BLOCKS = 4096


@dataclass
class PerfBenchConfig:
    """Workload shape for perf-bench (defaults run in a few seconds)."""

    seed: int = 7
    oram_height: int = 5
    accesses: int = 48
    working_set: int = 24
    # Shape of the trie/keccak/ECDSA workload.
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
class PerfBenchReport(GateReport):
    workload: dict
    oram: dict
    backends: list[dict]

    bench = "perf"

    def section_lines(self) -> list[str]:
        def short(digests: dict[str, str]) -> str:
            return ", ".join(
                f"{name} {value[:12]}" for name, value in sorted(digests.items())
            )

        shape = self.workload
        lines = [
            f"perf-bench: {shape['accesses']} ORAM accesses, "
            f"height {shape['oram_height']}, {shape['block_size']} B blocks, "
            f"AES-GCM + {shape['memo_blocks']}-block decrypt memo",
            f"  oram digests: {short(self.oram['digests'])}",
            f"  decrypt memo: {self.oram['memo_hits']} hits / "
            f"{self.oram['memo_misses']} misses",
            f"  crypto ({shape['trie_keys']} trie keys x "
            f"{shape['trie_commit_rounds']} commits, "
            f"{shape['hash_batch']} batch hashes, "
            f"{shape['channel_messages']} signed messages):",
        ]
        lines.extend(
            f"    {side['backend']:<10} {short(side['digests'])}; keccak memo "
            f"{side['keccak_hits']} hits / {side['keccak_misses']} misses"
            for side in self.backends
        )
        return lines


def _workload(config: PerfBenchConfig) -> list[tuple[bytes, bytes | None]]:
    """The deterministic access sequence."""
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
    for node, bucket in enumerate(server.snapshot_tree()):
        digest.update(node.to_bytes(8, "big"))
        digest.update(bucket)
    return digest.hexdigest()


def _run_oram(config: PerfBenchConfig) -> tuple[dict, list[str]]:
    """Replay the seeded access sequence; digest everything it produced.

    Returns the report section and the ORAM gates' failures."""
    key = hashlib.blake2b(
        config.seed.to_bytes(8, "big"), digest_size=32, person=b"perf-key"
    ).digest()
    server = OramServer(height=config.oram_height, block_size=BLOCK_SIZE)
    events: list[PathAccessEvent] = []
    server.add_observer(events.append)
    client = PathOramClient(
        server,
        key,
        block_size=BLOCK_SIZE,
        decrypt_memo_blocks=MEMO_BLOCKS,
    )
    reads = hashlib.blake2b(digest_size=16)
    for access_key, payload in _workload(config):
        result = client.access(access_key, payload)
        reads.update(result if result is not None else b"\x00")
    stats, memo = client.stats, client.memo.stats
    failures = []
    opened = stats.blocks_decrypted // server.bucket_size
    if memo.hits + memo.misses != opened:
        failures.append(
            f"oram: decrypt memo hits + misses {memo.hits + memo.misses} "
            f"!= buckets opened {opened}"
        )
    sealed = config.accesses * (server.height + 1) * server.bucket_size
    if stats.blocks_encrypted != sealed:
        failures.append(
            f"oram: blocks encrypted {stats.blocks_encrypted} "
            f"!= accesses x (height + 1) x Z = {sealed}"
        )
    section = {
        "digests": {
            "reads": reads.hexdigest(),
            "server_buckets": _digest_server(server),
            "access_events": _digest_events(events),
        },
        "memo_hits": memo.hits,
        "memo_misses": memo.misses,
    }
    return section, failures


def _run_crypto(config: PerfBenchConfig) -> tuple[dict, list[str]]:
    """Replay the seeded trie/keccak/ECDSA workload; digest what it made.

    Returns the report section and the channel gate's failure, if any.

    The section keeps the name ``hashlib`` the OpenSSL path had when the
    channel's crypto was a choice of tiers, so the committed report
    stays byte for byte.
    """
    from repro.crypto.ecc import PrivateKey
    from repro.crypto.keccak import (
        keccak256,
        keccak_memo_stats,
        reset_keccak_memo,
    )
    from repro.hypervisor.channel import SecureChannel
    from repro.trie.mpt import MerklePatriciaTrie

    # Memo-cold, so the counts are the workload's own.
    reset_keccak_memo()
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

    session_key = hashlib.blake2b(
        config.seed.to_bytes(8, "big"), digest_size=32, person=b"bknd-key"
    ).digest()
    sealer_key = PrivateKey.from_bytes(b"\x11" * 31 + b"\x01")
    opener_key = PrivateKey.from_bytes(b"\x22" * 31 + b"\x02")
    sealer = SecureChannel(
        session_key, own_signing_key=sealer_key,
        peer_verify_key=opener_key.public_key(),
    )
    opener = SecureChannel(
        session_key, own_signing_key=opener_key,
        peer_verify_key=sealer_key.public_key(),
    )
    sealed = [sealer.seal(payload) for payload in payloads]

    trie = MerklePatriciaTrie()
    rounds = max(1, config.trie_commit_rounds)
    per_round = max(1, len(pairs) // rounds)
    roots: list[bytes] = []
    for round_index in range(rounds):
        for key, value in pairs[round_index * per_round:(round_index + 1) * per_round]:
            trie.put(key, value)
        roots.append(trie.root_hash())
    batch_digests = [keccak256(item) for item in hash_items]
    opened = [opener.open(message) for message in sealed]

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
    failures = []
    if opened != payloads:
        failures.append("channel: opened plaintexts differ from the sealed payloads")
    memo = keccak_memo_stats()
    section = {
        "backend": "hashlib",
        "digests": {
            "trie_roots": digest(roots),
            "batch_hashes": digest(batch_digests),
            "channel_wire": digest(wire),
            "channel_plaintexts": digest(opened),
        },
        "keccak_hits": memo.hits,
        "keccak_misses": memo.misses,
    }
    return section, failures


def run_perf_bench(config: PerfBenchConfig | None = None) -> PerfBenchReport:
    config = config or PerfBenchConfig()
    shape = asdict(config)
    seed = shape.pop("seed")
    oram, oram_failures = _run_oram(config)
    crypto, crypto_failures = _run_crypto(config)
    return PerfBenchReport(
        seed=seed,
        workload={
            **shape,
            "block_size": BLOCK_SIZE,
            "memo_blocks": MEMO_BLOCKS,
            "cipher": "aes-gcm",
        },
        oram=oram,
        backends=[crypto],
        gate_failures=oram_failures + crypto_failures,
    )
