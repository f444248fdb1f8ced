"""The gated benches, as data.

``repro.cli`` generates one ``<name>-bench`` subcommand per entry
(``--seed/--smoke/--json-out`` plus the entry's extra flags) and runs
them all through one handler; CI's ``bench`` matrix and the committed
``BENCH_<name>.json`` files follow the same names.  Bench modules are
named by dotted path and imported on first use, so building the parser
loads none of them.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class ExtraArg:
    """A flag beyond the common three; a value other than ``default``
    overrides ``config_field``."""

    flag: str
    config_field: str
    type: type
    default: object
    help: str

    @property
    def dest(self) -> str:
        """The attribute argparse stores the flag's value under."""
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class BenchSpec:
    name: str
    module: str
    config: str
    run: str
    help: str
    default_seed: int = 1
    extra_args: tuple[ExtraArg, ...] = ()

    @property
    def command(self) -> str:
        return f"{self.name}-bench"

    @property
    def artifact(self) -> str:
        return f"BENCH_{self.name}.json"

    @property
    def failure_banner(self) -> str:
        return f"{self.command.upper()} FAILED: "

    def load(self):
        """``(config class, run function)``, importing the bench module."""
        module = importlib.import_module(self.module)
        return getattr(module, self.config), getattr(module, self.run)


BENCHES: tuple[BenchSpec, ...] = (
    BenchSpec(
        "perf", "repro.perf.bench", "PerfBenchConfig", "run_perf_bench",
        "byte oracle for the crypto/ORAM substrate: ORAM and crypto-path "
        "digests (repro.perf)",
        default_seed=7,
    ),
    BenchSpec(
        "recovery", "repro.recovery.bench", "RecoveryBenchConfig",
        "run_recovery_bench",
        "crash/restart chaos + rollback-attack gates (repro.recovery)",
    ),
    BenchSpec(
        "c10k", "repro.async_serving.bench", "C10kBenchConfig",
        "run_c10k_bench",
        "async serving tier: 10k concurrent sessions, resumption "
        "cost + identity gates (repro.async_serving); --smoke keeps the "
        "10k gate and shrinks the side scenarios",
        extra_args=(
            ExtraArg("--sessions", "concurrency_target", int, 0,
                     "override the concurrency target"),
        ),
    ),
    BenchSpec(
        "obs", "repro.telemetry.obs_bench", "ObsBenchConfig", "run_obs_bench",
        "observability plane: arming-is-invisible identity, three-way "
        "trace reconciliation, deterministic fault alerts "
        "(repro.telemetry)",
    ),
    BenchSpec(
        "receipt", "repro.faults.receipt_bench", "ReceiptBenchConfig",
        "run_receipt_bench",
        "signed pre-execution receipts: Byzantine detection, "
        "quarantine healing, receipts-invisible identity, sublinear "
        "audit cost (repro.faults)",
    ),
)
