"""Shared fixtures and result recording for the benchmark harness.

Every benchmark writes its paper-vs-measured table to
``benchmarks/results/<experiment>.md`` (and echoes it to stdout), so a
full ``pytest benchmarks/ --benchmark-only`` run regenerates the data
behind every table and figure in the paper.  EXPERIMENTS.md indexes the
output files.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.service import HarDTAPEService
from repro.core.user import PreExecutionClient
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# The scaled-down stand-in for the paper's 100-block evaluation set;
# raise these for a longer, closer-to-paper run.
EVALSET_CONFIG = EvaluationSetConfig(
    blocks=4,
    txs_per_block=8,
    profile_contract_count=16,
)


def record_result(name: str, title: str, lines: list[str]) -> str:
    """Write a result table and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    body = f"# {title}\n\n" + "\n".join(lines) + "\n"
    path = RESULTS_DIR / f"{name}.md"
    path.write_text(body)
    print(f"\n=== {title} ===")
    for line in lines:
        print(line)
    return body


@pytest.fixture(scope="session")
def evalset():
    return build_evaluation_set(EVALSET_CONFIG)


@pytest.fixture(scope="session")
def full_service(evalset):
    return HarDTAPEService(
        evalset.node, SecurityFeatures.from_level("full"), charge_fees=False
    )


def make_session(service):
    client = PreExecutionClient(
        service.manufacturer.root_public_key, rng_seed=b"\x10" * 32
    )
    return client, client.connect(service)
