"""The repro CLI."""

import hashlib

import pytest

from repro.async_serving import bench as c10k_bench
from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_demo_runs(capsys):
    assert main(["demo", "--level", "raw"]) == 0
    out = capsys.readouterr().out
    assert "pre-executed" in out and "status=1" in out


def test_evalset_summary(capsys):
    assert main(["evalset", "--blocks", "1", "--txs-per-block", "3"]) == 0
    out = capsys.readouterr().out
    assert "3 pre-executable transactions" in out
    assert "profile code sizes" in out


def test_trace_prints_opcodes(capsys):
    assert main([
        "trace", "--blocks", "1", "--txs-per-block", "2",
        "--tx", "0", "--steps", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "pc=0" in out and "status=" in out


def test_trace_rejects_bad_index(capsys):
    assert main([
        "trace", "--blocks", "1", "--txs-per-block", "2", "--tx", "99",
    ]) == 2
    assert "invalid --tx 99: tx index out of range (0..1)" in (
        capsys.readouterr().err
    )


def test_resources_table(capsys):
    assert main(["resources"]) == 0
    out = capsys.readouterr().out
    assert "103,388" in out
    assert "HEVMs per XCZU15EV: 3" in out


def test_disasm_library_contract(capsys):
    assert main(["disasm", "erc20"]) == 0
    out = capsys.readouterr().out
    assert "dispatch selectors" in out and "0xa9059cbb" in out


def test_disasm_hex_bytecode(capsys):
    assert main(["disasm", "0x6001600201"]) == 0
    out = capsys.readouterr().out
    assert "PUSH1 0x1" in out and "ADD" in out


def test_disasm_unknown_input(capsys):
    assert main(["disasm", "not-a-contract"]) == 1


def _seeded_bench_commands() -> list[str]:
    """Every ``*-bench`` subcommand of the real parser that takes --seed."""
    (subparsers,) = (
        action for action in build_parser()._actions
        if hasattr(action, "choices") and action.choices
    )
    return sorted(
        name for name, sub in subparsers.choices.items()
        if name.endswith("-bench") and "--seed" in sub._option_string_actions
    )


def test_every_bench_takes_a_seed():
    assert len(_seeded_bench_commands()) == 8


@pytest.mark.parametrize("command", _seeded_bench_commands())
def test_bench_rejects_bad_seed(command, capsys):
    """One typed exit-2 path, not an OverflowError traceback from the
    first ``seed.to_bytes(8, "big")`` a run happens to reach."""
    for seed in ("-1", str(2**64)):
        assert main([command, "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert f"invalid --seed {seed}" in err
        assert "non-negative 64-bit integer" in err


def _subparsers() -> dict:
    (subparsers,) = (
        action for action in build_parser()._actions
        if hasattr(action, "choices") and action.choices
    )
    return subparsers.choices


# A flag value no run can mean, and the reason its refusal names.
_NONSENSE = [
    (["serve-bench", "--requests", "0"], "invalid --requests 0: must be positive"),
    (["serve-bench", "--rtt-us", "-5"], "invalid --rtt-us -5.0: must be non-negative"),
    (["serve-bench", "--overload-rate", "-1"],
     "invalid --overload-rate -1.0: must be non-negative"),
    (["trace", "--steps", "-1"], "invalid --steps -1: must be non-negative"),
    (["trace", "--tx", "-1"], "invalid --tx -1: must be non-negative"),
    # No flag sizes the C10K run: the target is the bench's constant.
    (["c10k-bench", "--sessions", "-5"], "unrecognized arguments: --sessions -5"),
] + [
    ([command, "--workers", workers], f"invalid --workers {workers}: must be at least 1")
    for command, sub in sorted(_subparsers().items())
    if "--workers" in sub._option_string_actions
    for workers in ("0", "-3")
]


@pytest.mark.parametrize("argv, reason", _NONSENSE, ids=" ".join)
def test_a_nonsense_flag_value_is_a_typed_exit(argv, reason, capsys):
    """Exit 2 with the reason on stderr, as a bad ``--seed`` is: not a
    run of 0.0 tx/s, a negative RTT priced, a leg silently skipped, a
    serial run for a worker count under one, or a step count that
    slices from the end — nor a flag no run reads."""
    known = argv[-2] in _subparsers()[argv[0]]._option_string_actions
    assert known != reason.startswith("unrecognized arguments")
    try:
        code = main(argv)
    except SystemExit as refused:  # argparse's own refusal
        code = refused.code
    assert code == 2
    captured = capsys.readouterr()
    assert reason in captured.err
    assert captured.out == ""


def _evalset_commands() -> list[str]:
    """Every subcommand of the real parser that builds an evaluation set."""
    (subparsers,) = (
        action for action in build_parser()._actions
        if hasattr(action, "choices") and action.choices
    )
    return sorted(
        name for name, sub in subparsers.choices.items()
        if "--blocks" in sub._option_string_actions
    )


@pytest.mark.parametrize("command", _evalset_commands())
def test_an_empty_evaluation_set_is_a_typed_exit(command, capsys):
    """No transactions to run is exit 2 and one line naming the flags,
    not a ZeroDivisionError or an empty ``min()`` from deep in a run."""
    for flag in ("--blocks", "--txs-per-block"):
        for value in ("0", "-1"):
            assert main([command, flag, value]) == 2
            err = capsys.readouterr().err
            assert "invalid evaluation-set shape" in err
            assert "--blocks and --txs-per-block must be positive" in err


def test_figure4_rejects_an_empty_limit(capsys):
    assert _evalset_commands() == [
        "chaos-bench", "evalset", "figure4", "trace", "trace-bench",
    ]
    for limit in ("0", "-1"):
        assert main(["figure4", "--limit", limit]) == 2
        assert f"invalid --limit {limit}: must be positive" in (
            capsys.readouterr().err
        )


@pytest.mark.recovery
def test_recovery_bench_smoke(capsys, tmp_path):
    out_path = tmp_path / "BENCH_recovery.json"
    assert main(["recovery-bench", "--smoke", "--json-out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "all gates passed" in out
    import json

    parsed = json.loads(out_path.read_text())
    assert parsed["passed"] is True
    assert parsed["crash"]["crashes_fired"] >= 3
    assert parsed["identity"]["digest"] is True


@pytest.mark.serving
def test_c10k_bench_smoke_scaled_down(capsys, tmp_path, monkeypatch):
    # A smaller concurrency target keeps the unit suite fast; the full
    # 10k gate runs in bench_c10k / the CI c10k job.
    monkeypatch.setattr(c10k_bench, "CONCURRENCY_TARGET", 64)
    out_path = tmp_path / "BENCH_c10k.json"
    assert main([
        "c10k-bench", "--smoke", "--json-out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "all gates passed" in out
    import json

    parsed = json.loads(out_path.read_text())
    assert parsed["passed"] is True
    assert parsed["identity"]["digest"] is True
    assert parsed["c10k"]["peak_live"] >= 64
    assert parsed["epoch"]["stale_refused"] == parsed["epoch"]["sessions"]


def test_serve_bench_sweep_and_overload(capsys):
    assert main([
        "serve-bench", "--hevms", "2,4", "--requests", "5",
        "--overload-rate", "3000",
    ]) == 0
    out = capsys.readouterr().out
    assert "closed-loop sweep" in out
    assert "server util" in out
    assert "open-loop overload" in out
    assert "shed rate" in out


def test_serve_bench_without_overload(capsys):
    assert main([
        "serve-bench", "--hevms", "2", "--requests", "3",
        "--workload", "mixed", "--overload-rate", "0",
    ]) == 0
    out = capsys.readouterr().out
    assert "mixed workload" in out
    assert "open-loop" not in out


@pytest.mark.faults
def test_chaos_bench_output_does_not_depend_on_the_worker_count(capsys):
    """One code path: ``--workers`` only moves rows across processes.
    The header names the worker count; every byte after it is equal."""
    outputs = []
    for workers in ("1", "2"):
        assert main([
            "chaos-bench", "--rates", "0,0.02", "--tenants", "2",
            "--requests", "3", "--workers", workers,
        ]) == 0
        outputs.append(capsys.readouterr().out)
    (serial_header, serial_rows), (parallel_header, parallel_rows) = (
        out.split("\n", 1) for out in outputs
    )
    assert parallel_header == serial_header + ", 2 workers"
    assert serial_rows == parallel_rows
    assert serial_rows.count("fault rate") == 2


# The two stdout oracles every refactor since PR 13 compared to its
# parent by hand (seeded virtual time only, so every byte is stable).
# To regenerate: ``PYTHONPATH=src python -m repro.cli <args> | sha256sum``.
_STDOUT_SHA256 = {
    # python -m repro.cli serve-bench
    ("serve-bench",):
        "2634d5a6ed2fd1020a6911a07f07ce308bfb96de8ce78719dab53b508bae48fc",
    # python -m repro.cli chaos-bench --rates 0,0.02 --seed 1 --tenants 2 --requests 3
    ("chaos-bench", "--rates", "0,0.02", "--seed", "1", "--tenants", "2",
     "--requests", "3"):
        "f369ef7f24fb3f6d496cdff8d74121a6cd76012b74f39833e8944020ea33a463",
}


@pytest.mark.parametrize("argv", sorted(_STDOUT_SHA256), ids=lambda argv: argv[0])
def test_bench_stdout_is_byte_identical_to_the_pinned_run(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _STDOUT_SHA256[argv], out


# The two files ``trace-bench --seed 7`` exports (seeded virtual time
# and sampler draws only).  To regenerate:
# ``PYTHONPATH=src python -m repro.cli trace-bench --seed 7
# --trace-out trace.json --metrics-out metrics.prom``, then
# ``sha256sum trace.json metrics.prom``.
_TRACE_EXPORT_SHA256 = {
    # the Chrome trace JSON (--trace-out)
    "trace.json":
        "a8d87c13e6ea5905d87475ab4633d8fbe9cf42916841cf841b2253e9003b35a3",
    # the Prometheus text exposition (--metrics-out)
    "metrics.prom":
        "0da032a32c0da49fdc99e19007c7b041f68e091c370f1e9fe66304a7d8a14876",
}


def test_trace_bench_exports_are_byte_identical_to_the_pinned_run(tmp_path, capsys):
    trace, metrics = tmp_path / "trace.json", tmp_path / "metrics.prom"
    assert main([
        "trace-bench", "--seed", "7",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ]) == 0
    capsys.readouterr()
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (trace, metrics)
    } == _TRACE_EXPORT_SHA256
