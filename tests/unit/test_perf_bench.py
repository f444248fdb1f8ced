"""perf-bench engine: a byte oracle — digests and exact counts."""

import json

import pytest

from repro.bench.report import GateReport
from repro.perf.bench import PerfBenchConfig, run_perf_bench


@pytest.fixture(scope="module")
def report():
    return run_perf_bench(PerfBenchConfig.smoke())


def _keys_at_any_depth(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys_at_any_depth(value)
    elif isinstance(node, list):
        for item in node:
            yield from _keys_at_any_depth(item)


def test_perf_bench_smoke_json_regenerates(report):
    assert isinstance(report, GateReport) and report.passed
    (crypto,) = report.backends
    assert crypto["backend"] == "hashlib"
    assert set(crypto["digests"]) == {
        "trie_roots", "batch_hashes", "channel_wire", "channel_plaintexts"
    }
    assert set(report.oram["digests"]) == {
        "reads", "server_buckets", "access_events"
    }
    assert report.oram["memo_hits"] > 0

    # Nothing host-dependent is serialized: the same process regenerates
    # the same bytes, and no wall-clock key exists at any depth.
    text = report.to_json()
    assert run_perf_bench(PerfBenchConfig.smoke()).to_json() == text
    keys = set(_keys_at_any_depth(json.loads(text)))
    assert not {
        key for key in keys
        if key in ("wall_s", "layer_seconds") or "speedup" in key
    }


def test_perf_bench_summary_mentions_the_gate(report):
    lines = report.summary_lines()
    assert lines[-1] == "all gates passed"
    # Digests and counts only: no host seconds on stdout either.
    assert not [line for line in lines if "seconds" in line]
