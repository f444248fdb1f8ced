"""perf-bench engine: a byte oracle — digests, exact counts, one gate."""

import json

import pytest

from repro.bench.report import GateReport
from repro.crypto.backend import DEFAULT_BACKEND, active_backend, get_backend
from repro.crypto.suite import AesGcmAead
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


class _OffByOneBitAead(AesGcmAead):
    """A tier cipher whose every ciphertext differs from AES-GCM in one
    bit, and which opens its own ciphertexts."""

    def encrypt(self, nonce, plaintext, aad=b""):
        sealed = super().encrypt(nonce, plaintext, aad)
        return sealed[:-1] + bytes([sealed[-1] ^ 1])

    def decrypt(self, nonce, data, aad=b""):
        return super().decrypt(nonce, data[:-1] + bytes([data[-1] ^ 1]), aad)


def test_a_diverging_tier_fails_with_a_named_gate(monkeypatch):
    monkeypatch.setattr(get_backend("reference"), "aead_factory", _OffByOneBitAead)
    report = run_perf_bench(PerfBenchConfig.smoke())
    assert not report.passed
    (failure,) = report.gate_failures
    assert failure.startswith("crypto backends diverge pairwise (")
    assert "reference vs hashlib: channel_wire" in failure
    # The lying tier still opens what it sealed: only the wire diverges.
    assert "channel_plaintexts" not in failure
    assert json.loads(report.to_json())["passed"] is False
    # The bench hands the process tier back as it found it.
    assert active_backend().name == DEFAULT_BACKEND
