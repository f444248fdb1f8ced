"""Crash recovery end to end: the ISSUE's acceptance criteria as tests.

Three scenarios drive the full serving stack (gateway, sessions, ORAM,
checkpointing supervisor) rather than unit seams:

1. seeded mid-bundle hypervisor crashes — every affected request either
   completes after recovery or terminates with a typed crash failure,
   and the converged world-state digest is byte-identical to a no-crash
   baseline;
2. an SP rollback attack — stale tree served after restart is detected
   on the *first* access as ``RollbackDetectedError`` and healed by
   re-sync, and a rolled-back durable store is refused at boot;
3. the observer effect — zero-crash runs with checkpointing armed are
   byte-identical (traces, metrics, wire bytes, digest) to runs without.
"""

import pytest

from repro.recovery.bench import (
    CRASH_ERROR_TYPES,
    RecoveryBenchConfig,
    _run_deployment,
    _run_rollback_attack,
)

pytestmark = pytest.mark.recovery


@pytest.fixture(scope="module")
def config():
    return RecoveryBenchConfig.smoke(seed=1)


@pytest.fixture(scope="module")
def baseline(config):
    return _run_deployment(config, checkpointing=True, crash_rate=0.0)


@pytest.fixture(scope="module")
def crashed(config):
    return _run_deployment(config, checkpointing=True, crash_rate=config.crash_rate)


def test_crashes_fired_and_recovered(config, crashed):
    assert crashed.crashes_fired >= config.min_crashes
    assert crashed.restarts == crashed.crashes_fired
    assert crashed.affected, "no request ever observed a crash"


def test_every_affected_request_is_accounted(crashed):
    """100% of crash-affected requests complete after recovery or end in
    a typed FAILED — none hang, none vanish, none fail untyped."""
    for request in crashed.affected:
        if request.failure is not None:
            assert request.failure.cause_type in CRASH_ERROR_TYPES
        else:
            assert request.result is not None
    for load in crashed.loads:
        assert (
            load.completed + load.failed + load.rejected
            == load.submitted
        )


def test_world_digest_matches_no_crash_baseline(baseline, crashed):
    """Recovery converges: crashes mid-bundle never corrupt or fork the
    synced world state."""
    assert crashed.digest == baseline.digest


def test_journal_and_checkpoints_actually_flowed(crashed):
    assert crashed.checkpoints_written > 0
    assert crashed.journal_records > 0
    assert crashed.store_bytes > 0


def test_checkpointing_is_byte_invisible_when_idle(config, baseline):
    """Arming the recovery plane must not perturb a healthy run: no DRBG
    draws, no clock advances, no extra trace records."""
    plain = _run_deployment(config, checkpointing=False, crash_rate=0.0)
    assert baseline.trace_hash == plain.trace_hash
    assert baseline.metrics_hash == plain.metrics_hash
    assert baseline.wire_hash == plain.wire_hash
    assert baseline.digest == plain.digest


def test_rollback_attack_detected_and_healed(config):
    result = _run_rollback_attack(config)
    # Stale tree after restart: caught on the very first path read, with
    # the pinned epoch strictly ahead of what the SP served.
    assert result["detected_first_access"]
    assert result["served_version"] < result["expected_version"]
    # Re-sync recovers a usable world on the honest tree.
    assert result["healed"]
    # Rolling back the durable store itself trips the NVRAM pin at boot.
    assert result["store_rollback_refused"]
