"""The repro CLI."""

import hashlib

import pytest

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
    ]) == 1
    assert "out of range" in capsys.readouterr().err


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
def test_c10k_bench_smoke_scaled_down(capsys, tmp_path):
    # --sessions scales the concurrency scenario so the unit suite stays
    # fast; the full 10k gate runs in bench_c10k / the CI c10k job.
    out_path = tmp_path / "BENCH_c10k.json"
    assert main([
        "c10k-bench", "--smoke", "--sessions", "64",
        "--json-out", str(out_path),
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
