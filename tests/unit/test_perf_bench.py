"""perf-bench engine: a byte oracle — digests and exact counts."""

import json

import pytest

from repro.bench.report import GateReport
from repro.cli import main
from repro.hypervisor.channel import SecureChannel
from repro.oram.client import PathOramClient
from repro.perf.bench import PerfBenchConfig, run_perf_bench
from repro.perf.memo import MemoizedAead


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


def _tamper_plaintexts(monkeypatch):
    original = SecureChannel.open

    def open_(self, message, aad=b""):
        return original(self, message, aad) + b"!"

    monkeypatch.setattr(SecureChannel, "open", open_)


def _count_a_phantom_memo_hit(monkeypatch):
    original = MemoizedAead.open_path

    def open_path(self, blobs):
        opened = original(self, blobs)
        self.stats.hits += 1
        return opened

    monkeypatch.setattr(MemoizedAead, "open_path", open_path)


def _count_a_phantom_sealed_block(monkeypatch):
    original = PathOramClient._evict

    def evict(self, leaf, sim_time_us):
        original(self, leaf, sim_time_us)
        self.stats.blocks_encrypted += 1

    monkeypatch.setattr(PathOramClient, "_evict", evict)


@pytest.mark.parametrize(
    "breaker, failure",
    [
        (_tamper_plaintexts, "channel: opened plaintexts differ"),
        (_count_a_phantom_memo_hit, "oram: decrypt memo hits + misses"),
        (_count_a_phantom_sealed_block, "oram: blocks encrypted"),
    ],
    ids=["plaintexts", "memo-counts", "blocks-encrypted"],
)
def test_each_perf_gate_fails_alone_and_fails_the_cli(
    breaker, failure, monkeypatch, tmp_path, capsys
):
    breaker(monkeypatch)
    report = run_perf_bench(PerfBenchConfig.smoke())
    assert len(report.gate_failures) == 1
    assert report.gate_failures[0].startswith(failure)
    assert not report.passed
    assert json.loads(report.to_json())["passed"] is False
    assert main(["perf-bench", "--smoke", "--json-out", str(tmp_path / "p.json")]) == 1
    assert "PERF-BENCH FAILED: " + failure in capsys.readouterr().err
