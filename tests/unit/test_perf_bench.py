"""perf-bench engine: a byte oracle — digests, exact counts, one gate."""

import json

import pytest

from repro.bench.report import GateReport
from repro.crypto.backend import get_backend
from repro.crypto.keccak import Keccak256, SpongeKeccakEngine, keccak256
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


def test_perf_bench_smoke_tiers_agree_and_json_regenerates(report):
    assert isinstance(report, GateReport) and report.passed
    assert [side["backend"] for side in report.backends] == ["reference", "hashlib"]
    first, *others = report.backends
    assert set(first["digests"]) == {
        "trie_roots", "batch_hashes", "channel_wire", "channel_plaintexts"
    }
    for other in others:
        assert other["digests"] == first["digests"], other["backend"]
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
        or key.startswith("tier_wall")
    }


def test_perf_bench_summary_mentions_the_gate(report):
    lines = report.summary_lines()
    assert lines[-1] == "all gates passed"
    (tier_line,) = [line for line in lines if "tier wall seconds" in line]
    assert "not in the JSON" in tier_line
    assert all(side["backend"] in tier_line for side in report.backends)
    # ...with what each tier resolved to on this host, on stdout only.
    assert "reference (AesGcmAead, PublicKey)" in tier_line
    assert "hashlib (AcceleratedAesGcmAead, _OpensslVerifier)" in tier_line
    text = report.to_json()
    assert "Verifier" not in text and "PublicKey" not in text


class _OffByOneBitEngine(SpongeKeccakEngine):
    """A tier whose every digest differs from the sponge in one bit."""

    def hash_one(self, data):
        digest = super().hash_one(data)
        return digest[:-1] + bytes([digest[-1] ^ 1])

    def hash_many(self, items):
        return [self.hash_one(data) for data in items]


def test_a_diverging_tier_fails_with_a_named_gate(monkeypatch):
    # The non-default tier, so the bench's own ``activate(previous)``
    # reinstalls an honest engine; each later tier starts memo-cold.
    monkeypatch.setattr(
        get_backend("reference"), "keccak_engine", _OffByOneBitEngine
    )
    report = run_perf_bench(PerfBenchConfig.smoke())
    assert not report.passed
    (failure,) = report.gate_failures
    assert failure.startswith("crypto backends diverge pairwise (")
    for digest in ("trie_roots", "batch_hashes"):
        assert f"reference vs hashlib: {digest}" in failure
    assert json.loads(report.to_json())["passed"] is False
    # Nothing of the lying tier outlives the run.
    assert keccak256(b"perf-bench") == Keccak256(b"perf-bench").digest()
