"""Ablation A2 — ORAM stash occupancy (paper §IV-D).

The paper sizes the on-chip stash at O(log n) ≈ 30 pages (≈ 1 MB with
metadata).  We drive long random access traces through the client and
record the stash-size distribution: the maximum must sit far below the
budget, and the tail must decay geometrically (the Path ORAM guarantee).
"""

from __future__ import annotations

from repro.crypto.kdf import Drbg
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer

from conftest import record_result

ACCESSES = 1500
KEYS = 300


def _run_trace() -> PathOramClient:
    server = OramServer(height=10, block_size=64)
    client = PathOramClient(
        server, key=b"stash-bench" + b"\x00" * 21, block_size=64,
        rng=Drbg(b"stash"),
    )
    rng = Drbg(b"stash-workload")
    for i in range(KEYS):  # populate
        client.write(b"key%d" % i, b"v")
    for _ in range(ACCESSES):
        key = b"key%d" % rng.randint(KEYS)
        if rng.randint(2):
            client.read(key)
        else:
            client.write(key, b"w")
    return client


def test_stash_occupancy(benchmark):
    client = benchmark.pedantic(_run_trace, iterations=1, rounds=1)
    histogram = client.stats.stash_sizes
    accesses = sum(histogram.values())
    maximum = client.stats.max_stash_blocks

    lines = [
        f"accesses: {accesses}, distinct keys: {KEYS}",
        f"max stash occupancy: {maximum} blocks (paper budget ≈ 30 pages)",
        "",
        "| stash size | fraction of accesses |",
        "|---|---|",
    ]
    for size in sorted(histogram):
        lines.append(f"| {size} | {histogram[size] / accesses:.3%} |")
    record_result("ablation_stash", "Ablation — stash occupancy", lines)

    assert maximum <= 30  # fits the paper's 30-page on-chip budget
    # Geometric tail: occupancy 0/1 dominates.
    assert (histogram[0] + histogram[1]) / accesses > 0.5
