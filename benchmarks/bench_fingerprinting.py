"""Experiment SEC3 — residual leakage: contract fingerprinting by query
count, and the padding countermeasure (extension).

The paper hides query *targets* (ORAM), query *types* (prefetch
smoothing), and swap *sizes* (noise) — but the **number** of ORAM
queries per bundle still tracks the executing contract's code size and
storage behaviour.  An SP watching only per-bundle query counts can
therefore distinguish candidate contracts of different sizes.

This bench quantifies that residual channel and evaluates the
repository's extension countermeasure (``SecurityFeatures.query_padding``:
pad each bundle's count to the next power of two).
"""

from __future__ import annotations

import pytest

from repro.core.service import HarDTAPEService
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.state.blocks import Transaction
from repro.workloads.contracts.profile import profile_calldata

from conftest import make_session, record_result


def _query_counts(evalset, candidates, query_padding: bool):
    """Per-bundle ORAM access counts for each candidate contract."""
    features = SecurityFeatures.from_level("full")
    features.query_padding = query_padding
    service = HarDTAPEService(evalset.node, features, charge_fees=False)
    client, session = make_session(service)
    user = evalset.population.users[0]
    server = service.oram_server
    counts: dict[bytes, list[int]] = {address: [] for address in candidates}
    for _ in range(4):
        for address in candidates:
            tx = Transaction(
                sender=user, to=address, data=profile_calldata(2, 0)
            )
            before = server.stats.reads
            client.pre_execute(service, session, [tx])
            counts[address].append(server.stats.reads - before)
    return counts


def _identification_accuracy(counts: dict[bytes, list[int]]) -> float:
    """Nearest-centroid classifier on per-bundle query counts."""
    centroids = {
        address: sum(values) / len(values) for address, values in counts.items()
    }
    correct = 0
    total = 0
    for address, values in counts.items():
        for value in values:
            guess = min(centroids, key=lambda a: abs(centroids[a] - value))
            correct += guess == address
            total += 1
    return correct / total


@pytest.fixture(scope="module")
def candidates(evalset):
    """Four profile contracts with clearly distinct code sizes."""
    sizes = sorted(
        evalset.population.profile_sizes.items(), key=lambda item: item[1]
    )
    picked = [sizes[0], sizes[len(sizes) // 3], sizes[2 * len(sizes) // 3], sizes[-1]]
    return [address for address, _ in picked]


def test_query_count_fingerprinting(benchmark, evalset, candidates):
    def experiment():
        plain = _query_counts(evalset, candidates, query_padding=False)
        padded = _query_counts(evalset, candidates, query_padding=True)
        return plain, padded

    plain, padded = benchmark.pedantic(experiment, iterations=1, rounds=1)
    accuracy_plain = _identification_accuracy(plain)
    accuracy_padded = _identification_accuracy(padded)

    lines = [
        "candidate contracts (code size -> per-bundle ORAM query counts):",
    ]
    for address in candidates:
        size = evalset.population.profile_sizes[address]
        lines.append(
            f"  {size:>6} B : plain {plain[address]}  padded {padded[address]}"
        )
    lines += [
        "",
        "| defense | contract-identification accuracy (chance = 25%) |",
        "|---|---|",
        f"| -full (paper) | {accuracy_plain:.0%} |",
        f"| -full + query-count padding (extension) | {accuracy_padded:.0%} |",
        "",
        "the per-bundle query COUNT is a residual side channel the paper",
        "does not address; power-of-two padding merges similar-sized",
        "contracts into one bucket (at up to 2x dummy ORAM traffic) but",
        "magnitude classes stay apart — full hiding needs constant-count",
        "padding, i.e. always paying the worst case.",
    ]
    record_result(
        "fingerprinting", "Residual leakage — query-count fingerprinting", lines
    )

    assert accuracy_plain >= 0.75       # the residual channel is real
    assert accuracy_padded < accuracy_plain  # bucketing merges neighbours
