"""The runnable examples stay runnable (smoke tests over main())."""

import importlib.util
import pathlib
import sys


EXAMPLES_DIR = pathlib.Path(__file__).parent.parent.parent / "examples"


def _run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run_example("quickstart", capsys)
    assert "attestation verified" in out
    assert "still 0" in out  # nothing persisted on-chain


def test_honeypot_detection(capsys):
    out = _run_example("honeypot_detection", capsys)
    assert "this contract is a honeypot" in out
    assert "victim balance: 100 ETH" in out


def test_block_sync_lifecycle(capsys):
    out = _run_example("block_sync_lifecycle", capsys)
    assert "Hypervisor rejected the block" in out


def test_frontrunning_privacy(capsys):
    out = _run_example("frontrunning_privacy", capsys)
    assert "frequency-analysis accuracy vs HarDTAPE: 0%" in out
    assert "frequency-analysis accuracy vs encrypted store: 100%" in out


def test_hft_strategy_testing(capsys):
    out = _run_example("hft_strategy_testing", capsys)
    # Later swaps of one bundle hit warm layer-1 state: no ORAM time.
    assert "per-tx ORAM ms: 31.8, 0.0, 0.0, 0.0, 0.0" in out
    assert "chosen size: 10,000" in out


def test_capacity_planning(capsys):
    out = _run_example("capacity_planning", capsys)
    assert "the ORAM server saturates around 144 HEVMs (48 chips)" in out
