"""Smoke checks for the e2e benchmark (not part of tier-1: ``testpaths``
is ``tests``; run with ``python -m pytest benchmarks/e2e -q``).

The benchmark patches classes process-wide while tracing, so each check
drives ``run.py`` the way the driver does: as a subprocess.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, root: pathlib.Path = ROOT):
    # From the root of the checkout, as the driver runs it, and without
    # this test session's PYTHONPATH: run.py must find ``src`` itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=root, env=env,
    )


def _names(kind: str) -> list[str]:
    return [entry["name"] for entry in DECLARED[kind]]


def test_smoke_emits_exactly_the_declared_ledger(tmp_path):
    out = tmp_path / "smoke.json"
    proc = _run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == _names("workloads")
    for name, run in result["workloads"].items():
        assert list(run["end_to_end"]) == _names("end_to_end"), name
        assert list(run["per_layer"]) == _names("per_layer"), name
        assert run["failed"] == 0, run["failures"]
        assert run["per_layer"]["failed_share"]["value"] == 0, name
        assert run["sim_digests_agree"], name
        for metric, entry in run["end_to_end"].items():
            assert entry["value"] > 0, (name, metric)
    raw = result["workloads"]["compute_raw"]["per_layer"]
    for metric in ("oram.access_self_ms_per_bundle", "crypto.aead_ms_per_bundle",
                   "crypto.ecdsa_sign_ms_per_bundle", "crypto.ecdsa_verify_ms_per_bundle"):
        assert raw[metric]["value"] == 0, metric
    for stamp in ("nproc", "python", "numpy", "cryptography_importable",
                  "crypto_tier", "seed", "git_commit"):
        assert stamp in result["environment"]
    # A result compared with itself is within every bound.
    same = _run("--compare", str(out), str(out))
    assert same.returncode == 0, same.stdout


def test_driver_contract_last_line():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "compute_raw", "--seed", "7",
                    "--seconds", "1.5", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert list(last["metrics"]) == _names(kind)
        units = {entry["name"]: entry["unit"] for entry in DECLARED[kind]}
        for metric, entry in last["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == units[metric]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run("--workload", "evalset_full", "--seed", "1", "--seconds", "15",
                "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
