"""Experiment SEC2 — why Path ORAM and not frequency smoothing (§IV-D).

The paper rules out PANCAKE/Waffle-style *sub-obliviousness* because
"they are not designed against an active adversary who can send
requests to interfere with the distribution".  This bench measures all
three regimes on the same key space:

1. calibrated workload → smoothing works (replica rates uniform),
2. an adversary-shifted workload → the victim key's replicas run hot
   and are identified,
3. the identical shifted workload against Path ORAM → nothing.
"""

from __future__ import annotations

import pytest

from repro.crypto.kdf import Drbg
from repro.oram.client import PathOramClient
from repro.oram.pancake import FrequencySmoothedStore, rate_deviation_attack
from repro.oram.server import OramServer
from repro.security.observer import AccessPatternObserver

from conftest import record_result

KEYS = [b"contract-%d" % i for i in range(6)]
ASSUMED = {key: float(2 ** (5 - i)) for i, key in enumerate(KEYS)}
VICTIM = KEYS[-1]  # calibrated as the coldest key


def _fresh_store(seed: bytes) -> FrequencySmoothedStore:
    store = FrequencySmoothedStore(b"p" * 32, ASSUMED, rng=Drbg(seed))
    for key in KEYS:
        store.put(key, b"v")
    store.trace.clear()
    return store


def _calibrated_queries(store, count: int, seed: bytes) -> None:
    rng = Drbg(seed)
    total = int(sum(ASSUMED.values()))
    for _ in range(count):
        point = rng.randint(total)
        cumulative = 0
        for key, weight in ASSUMED.items():
            cumulative += int(weight)
            if point < cumulative:
                store.get(key)
                break


def test_pancake_vs_oram(benchmark):
    def experiment():
        # Regime 1: calibrated.
        calibrated = _fresh_store(b"s1")
        _calibrated_queries(calibrated, 4000, b"w1")
        hot_calibrated = rate_deviation_attack(
            calibrated.observed_counts(), calibrated.total_replicas
        )

        # Regime 2: the adversary-shifted workload hammers the victim.
        shifted = _fresh_store(b"s2")
        _calibrated_queries(shifted, 1000, b"w2")
        for _ in range(2000):
            shifted.get(VICTIM)
        hot_shifted = rate_deviation_attack(
            shifted.observed_counts(), shifted.total_replicas
        )
        victim_replicas = set(shifted.replicas_of(VICTIM))
        identified = bool(hot_shifted & victim_replicas)
        false_positives = hot_shifted - victim_replicas

        # Regime 3: identical shift against Path ORAM.
        server = OramServer(height=8, block_size=64)
        observer = AccessPatternObserver().attach(server)
        client = PathOramClient(server, key=b"o" * 32, block_size=64,
                                rng=Drbg(b"oram"))
        for key in KEYS:
            client.write(key, b"v")
        observer.clear()
        for _ in range(2000):
            client.read(VICTIM)
        counts: dict[bytes, int] = {}
        for leaf in observer.leaves:
            handle = leaf.to_bytes(4, "big")
            counts[handle] = counts.get(handle, 0) + 1
        hot_oram = rate_deviation_attack(counts, server.leaf_count, threshold=2.0)
        return hot_calibrated, identified, false_positives, hot_oram, server

    hot_calibrated, identified, false_positives, hot_oram, server = (
        benchmark.pedantic(experiment, iterations=1, rounds=1)
    )

    lines = [
        "| regime | hot handles found | victim identified |",
        "|---|---|---|",
        f"| PANCAKE, calibrated workload | {len(hot_calibrated)} | no |",
        f"| PANCAKE, shifted workload | ≥1 | "
        f"{'YES' if identified else 'no'} "
        f"({len(false_positives)} false positives) |",
        f"| Path ORAM, same shift | {len(hot_oram)} / {server.leaf_count} "
        "leaves (noise) | no |",
        "",
        "paper §IV-D: frequency smoothing assumes a static distribution;",
        "an active adversary shifts it and the victim's replicas run hot.",
        "Path ORAM's per-access remapping has no distribution to shift.",
    ]
    record_result(
        "baseline_pancake", "Why ORAM, not frequency smoothing", lines
    )

    assert not hot_calibrated          # smoothing works when calibrated
    assert identified                  # ...and breaks under a shift
    assert not false_positives
    # ORAM: no leaf can be pinned to the victim (any flagged leaves are
    # small-sample noise spread over the whole tree).
    assert len(hot_oram) < server.leaf_count * 0.1
