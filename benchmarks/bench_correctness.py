"""Experiment C1 — §VI-B pre-execution correctness.

HarDTAPE's traces are compared against the node's ground truth
(debug_traceTransaction equivalent) for every transaction in the
evaluation set: status, gas, return data, and storage effects must all
match.  The paper reports "HarDTAPE can run the remaining transactions
correctly" (rollups excepted); we report the match rate.
"""

from __future__ import annotations

import pytest

from repro.core.service import HarDTAPEService
from repro.evm.executor import execute_transaction
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.state.journal import JournaledState

from conftest import make_session, record_result


@pytest.fixture(scope="module")
def correctness(evalset, full_service):
    client, session = make_session(full_service)
    matches = 0
    mismatches = []
    for index, tx in enumerate(evalset.transactions):
        ground_state = JournaledState(
            evalset.node.state_at(full_service.synced_height).copy()
        )
        expected = execute_transaction(
            ground_state, full_service.pending_chain_context(), tx,
            charge_fees=False,
        )
        report, _, _ = client.pre_execute(full_service, session, [tx])
        trace = report.traces[0]
        same = (
            trace.status == expected.status
            and trace.gas_used == expected.gas_used
            and trace.return_data == expected.return_data
            and trace.storage_changes == dict(expected.write_set.storage)
        )
        if same:
            matches += 1
        else:
            mismatches.append(index)
    return matches, mismatches, len(evalset.transactions)


def test_correctness_vs_ground_truth(benchmark, correctness, evalset, full_service):
    matches, mismatches, total = correctness

    client, session = make_session(full_service)
    tx = evalset.transactions[0]
    benchmark.pedantic(
        lambda: client.pre_execute(full_service, session, [tx]),
        iterations=1, rounds=3,
    )

    lines = [
        f"transactions checked : {total}",
        f"exact trace matches  : {matches}",
        f"mismatches           : {mismatches or 'none'}",
        "",
        "paper: all non-rollup evaluation-set transactions traced identically "
        "to the on-chain ground truth",
    ]
    record_result("correctness", "§VI-B pre-execution correctness", lines)
    assert matches == total
