"""Shared fixtures for the HarDTAPE reproduction test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.evm.interpreter import ChainContext
from repro.state.account import to_address
from repro.state.backend import DictBackend
from repro.state.blocks import BlockHeader
from repro.state.journal import JournaledState
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

ALICE = to_address(0xA11CE)
BOB = to_address(0xB0B)
COINBASE = to_address(0xC01BA5E)

# One profile for every property test, loaded before any test module is
# collected: no wall-clock deadline (a property's speed is the host's,
# not the code's), and examples drawn from a seed derived from each test,
# so two runs of the suite try the same inputs.  A test's own
# ``@settings`` still overrides either.
settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def header() -> BlockHeader:
    return BlockHeader(
        number=100,
        parent_hash=b"\x11" * 32,
        state_root=b"\x22" * 32,
        timestamp=1_700_000_000,
        coinbase=COINBASE,
    )


@pytest.fixture
def chain(header) -> ChainContext:
    return ChainContext(header)


@pytest.fixture
def backend() -> DictBackend:
    be = DictBackend()
    be.ensure(ALICE).balance = 10**21
    be.ensure(BOB).balance = 10**18
    return be


@pytest.fixture
def state(backend) -> JournaledState:
    return JournaledState(backend)


@pytest.fixture(scope="session")
def tiny_evalset():
    """A small but complete evaluation set, built once per session."""
    return build_evaluation_set(
        EvaluationSetConfig(blocks=3, txs_per_block=6, profile_contract_count=10)
    )
