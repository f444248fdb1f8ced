"""No (key, nonce) pair is ever sealed twice, across a crash and a restart.

A repeated (key, nonce) pair is the one fatal failure of AES-GCM: the two
ciphertexts share a keystream, and the pair of tags gives away the
authentication key.  Every sealer in the system seals with AES-GCM
through OpenSSL, so every ``AcceleratedAesGcmAead.encrypt`` call is
recorded here with the key its cipher was built under, through the
sequence where a nonce would repeat if one ever did: ORAM accesses, a
crash while a path write-back is on the wire (sealed, never stored or
journalled: only its write-ahead lease is durable), the hypervisor's
crash,
``RecoveryManager.recover`` and ``rebuild_client`` (through the
supervisor), then more accesses, a checkpoint and a ticket minted by
the restarted hypervisor.  DESIGN.md §7.2 gives the argument per sealer;
this is its check on the wire.
"""

from collections import Counter
from dataclasses import dataclass, field

import pytest

from repro.bench.stack import build_service
from repro.core.user import PreExecutionClient
from repro.crypto.kdf import hkdf_sha256
from repro.crypto.suite import AcceleratedAesGcmAead
from repro.hypervisor.channel import SecureChannel
from repro.recovery.manager import RecoveryManager
from repro.recovery.store import DurableStore
from repro.recovery.supervisor import HypervisorSupervisor
from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

pytestmark = pytest.mark.recovery


class _CrashMidWriteBack(Exception):
    """The device dies while a path write-back is in flight."""


@dataclass
class _SealLog:
    """Every AES-GCM seal as ``(key, nonce)``, and the channels' keys."""

    seals: list = field(default_factory=list)
    channel_keys: set = field(default_factory=set)

    def install(self, patch: pytest.MonkeyPatch) -> None:
        init, encrypt = AcceleratedAesGcmAead.__init__, AcceleratedAesGcmAead.encrypt
        channel_init = SecureChannel.__init__

        def recording_init(cipher, key):
            init(cipher, key)
            cipher.recorded_key = key

        def recording_encrypt(cipher, nonce, plaintext, aad=b""):
            self.seals.append((cipher.recorded_key, nonce))
            return encrypt(cipher, nonce, plaintext, aad)

        def recording_channel_init(channel, session_key, *args, **kwargs):
            self.channel_keys.add(session_key)
            channel_init(channel, session_key, *args, **kwargs)

        patch.setattr(AcceleratedAesGcmAead, "__init__", recording_init)
        patch.setattr(AcceleratedAesGcmAead, "encrypt", recording_encrypt)
        patch.setattr(SecureChannel, "__init__", recording_channel_init)

    def repeats(self, keys) -> list:
        counts = Counter(seal for seal in self.seals if seal[0] in keys)
        return [seal for seal, count in counts.items() if count > 1]


@pytest.fixture(scope="module")
def run():
    """One deployment through the crash; returns the log and its sealers."""
    log = _SealLog()
    with pytest.MonkeyPatch.context() as patch:
        log.install(patch)
        evalset = build_evaluation_set(
            EvaluationSetConfig(blocks=1, txs_per_block=4, profile_contract_count=1)
        )
        service = build_service(evalset.node, device_count=1)
        device = service.devices[0]
        store = DurableStore()
        manager = RecoveryManager(device, store, checkpoint_interval=4)
        manager.attach(service)
        supervisor = HypervisorSupervisor(service, manager, store)
        user = PreExecutionClient(
            service.manufacturer.root_public_key, rng_seed=b"\x01" * 32
        )
        transactions = evalset.transactions

        # Generation 0: bundles (ORAM accesses, journal records, a
        # checkpoint every four accesses) and a ticket.
        session = user.connect(service)
        user.pre_execute(service, session, transactions[:2])
        user.suspend(session)
        # The worst case: the crash hits while an access's write-back is
        # on the wire — sealed and seen by the SP, never stored, never
        # journalled — so only the write-ahead lease knows those nonces
        # were used.
        oram = service.shared_oram_client
        seals_before_write_back = len(log.seals)

        def crash_mid_write_back(leaf, buckets, sim_time_us=0.0):
            raise _CrashMidWriteBack

        oram.server.write_path = crash_mid_write_back
        with pytest.raises(_CrashMidWriteBack):
            oram.access(b"nonce-uniqueness/unconfirmed", b"on the wire")
        del oram.server.write_path
        assert len(log.seals) > seals_before_write_back
        seals_before_crash = len(log.seals)
        device.hypervisor.crash("nonce-uniqueness test")
        supervisor.restart(0)  # recover, rebuild_client, restart_hypervisor
        assert service.shared_oram_client is not oram
        assert device.hypervisor.generation == 1

        # Generation 1: the same sealers, keys re-derived from the PUF.
        session = user.connect(service)
        user.pre_execute(service, session, transactions[2:4])
        supervisor.manager.checkpoint()
        user.suspend(session)

    recovery = device.csu.derive_sealing_key(b"recovery")
    sealers = {
        "oram": device.hypervisor.oram_key,
        "journal": hkdf_sha256(recovery, info=b"journal"),
        "checkpoint": hkdf_sha256(recovery, info=b"checkpoint"),
        "ticket": device.csu.derive_sealing_key(b"resumption-ticket"),
    }
    return log, sealers, seals_before_crash


def test_no_sealer_repeats_a_nonce_across_a_crash(run):
    log, sealers, seals_before_crash = run
    keys = set(sealers.values())
    # Nothing seals under a key this test cannot name.
    assert {key for key, _nonce in log.seals} <= keys | log.channel_keys
    # Every sealer sealed on both sides of the crash.
    before, after = log.seals[:seals_before_crash], log.seals[seals_before_crash:]
    for name, key in sealers.items():
        assert any(seal[0] == key for seal in before), name
        assert any(seal[0] == key for seal in after), name
    assert log.repeats(keys) == []


@pytest.mark.xfail(
    strict=True,
    reason="both ends of a SecureChannel seal under one session key with "
    "counters that each start at 1 (DESIGN.md §7.2, ROADMAP item 14)",
)
def test_no_channel_repeats_a_nonce(run):
    log, _sealers, _ = run
    assert log.repeats(log.channel_keys) == []
