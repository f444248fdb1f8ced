"""RecoveryManager: checkpoint/journal round-trips and boot verification.

The adversary model throughout: the :class:`DurableStore` is the SP's
disk and does whatever it likes — these tests *are* the malicious SP
(dropping records, flipping bytes, restoring old snapshots) and assert
the trusted side refuses every forgery at boot.
"""

from types import SimpleNamespace

import hashlib

import pytest

from repro.core.device import DeviceConfig
from repro.crypto.kdf import Drbg
from repro.hardware.csu import MonotonicCounter
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.recovery.manager import RecoveryIntegrityError, RecoveryManager
from repro.recovery.store import DurableStore

pytestmark = pytest.mark.recovery

_KEY = b"k" * 32


class _Csu:
    """PUF-free stand-in: deterministic sealing-key derivation."""

    def derive_sealing_key(self, label: bytes) -> bytes:
        return hashlib.sha256(b"unit-puf|" + label).digest()


def _device():
    return SimpleNamespace(csu=_Csu(), nvram=MonotonicCounter(), config=DeviceConfig())


def _deployment(checkpoint_interval=100):
    """A journaling ORAM client over a fake device, no service needed."""
    server = OramServer(height=4)
    client = PathOramClient(server, key=_KEY, block_size=64, rng=Drbg(b"r"))
    device = _device()
    store = DurableStore()
    manager = RecoveryManager(
        device, store, checkpoint_interval=checkpoint_interval, oram_key=_KEY
    )
    manager.reattach(SimpleNamespace(devices=[]), client)
    manager.checkpoint()
    return server, client, device, store, manager


def test_recover_roundtrip_restores_trusted_state():
    server, client, device, store, manager = _deployment()
    for i in range(6):
        client.access(b"key%d" % i, b"value%d" % i)
    expected = client.snapshot_trusted_state()

    manager2, state, replayed = RecoveryManager.recover(device, store)
    assert replayed == manager.records_written
    assert state.stash == expected["stash"]
    assert state.positions == expected["positions"]
    assert state.node_versions == expected["node_versions"]
    assert state.nonce_counter >= expected["nonce_counter"]

    rebuilt = manager2.rebuild_client(state, server, generation=1)
    for i in range(6):
        assert rebuilt.read(b"key%d" % i).rstrip(b"\x00") == b"value%d" % i


def test_nonce_counter_never_regresses_across_crash():
    """No AEAD nonce reuse after crash-recover: the write-ahead lease
    covers every nonce the dead instance could have put on the wire."""
    server, client, device, store, manager = _deployment()
    for i in range(4):
        client.access(b"key%d" % i, b"v")
    burned = client._nonce_counter
    # Worst case: a lease was journaled and the crash hit before the
    # access record confirmed how much of it was used.
    manager.reserve_nonces(client._nonce_counter, 50)

    manager2, state, _ = RecoveryManager.recover(device, store)
    assert state.nonce_counter >= burned + 50
    rebuilt = manager2.rebuild_client(state, server, generation=1)
    start = rebuilt._nonce_counter
    assert start >= burned + 50
    rebuilt.access(b"key0")
    assert rebuilt._nonce_counter > start  # fresh nonces only


def test_periodic_checkpoint_prunes_old_epochs():
    server, client, device, store, manager = _deployment(checkpoint_interval=2)
    for i in range(8):
        client.access(b"key%d" % i, b"v")
    assert manager.checkpoints_written >= 4
    # Only the live epoch survives in the store.
    assert len(store.keys("checkpoint/")) == 1
    assert store.keys("checkpoint/")[0] == manager._checkpoint_key(manager.epoch)
    manager2, state, _ = RecoveryManager.recover(device, store)
    rebuilt = manager2.rebuild_client(state, server, generation=1)
    assert rebuilt.read(b"key7").rstrip(b"\x00") == b"v"


def test_store_rollback_refused_at_boot():
    """The SP restoring an older (checkpoint + journal) snapshot of the
    whole store trips the hardware monotonic counter."""
    server, client, device, store, manager = _deployment()
    client.access(b"key", b"v1")
    manager.checkpoint()
    snapshot = store.snapshot()
    client.access(b"key", b"v2")  # advances the NVRAM pin past the snapshot
    store.restore(snapshot)
    with pytest.raises(RecoveryIntegrityError, match="rollback"):
        RecoveryManager.recover(device, store)


def test_journal_gap_refused():
    server, client, device, store, manager = _deployment()
    client.access(b"key", b"v")  # lease (seq 1) + access (seq 2)
    journal_keys = store.keys("journal/")
    assert len(journal_keys) >= 2
    store.delete(journal_keys[0])  # drop a middle record, keep the tail
    with pytest.raises(RecoveryIntegrityError, match="gap"):
        RecoveryManager.recover(device, store)


def test_tampered_checkpoint_refused():
    server, client, device, store, manager = _deployment()
    client.access(b"key", b"v")
    manager.checkpoint()
    key = store.keys("checkpoint/")[-1]
    blob = bytearray(store.get(key))
    blob[-1] ^= 1
    store.put(key, bytes(blob))
    with pytest.raises(RecoveryIntegrityError, match="unseal"):
        RecoveryManager.recover(device, store)


def test_tampered_journal_record_refused():
    server, client, device, store, manager = _deployment()
    client.access(b"key", b"v")
    key = store.keys("journal/")[-1]
    blob = bytearray(store.get(key))
    blob[0] ^= 1
    store.put(key, bytes(blob))
    with pytest.raises(RecoveryIntegrityError, match="unseal"):
        RecoveryManager.recover(device, store)


@pytest.mark.parametrize("write_journal", [False, True],
                         ids=["checkpoint", "journal"])
def test_a_cipher_bug_at_boot_is_not_retyped_as_tampering(
    monkeypatch, write_journal
):
    """Both unseal sites re-type what a sealer can raise
    (`AuthenticationError`, `ValueError`) and nothing else."""
    from repro.crypto.suite import AcceleratedAesGcmAead

    server, client, device, store, manager = _deployment()
    if write_journal:
        client.access(b"key", b"v")
    calls = []

    def broken(self, nonce, data, aad=b""):
        calls.append(aad)
        if write_journal and len(calls) == 1:
            return original(self, nonce, data, aad)  # the checkpoint opens
        raise TypeError("stub cipher bug")

    original = AcceleratedAesGcmAead.decrypt
    monkeypatch.setattr(AcceleratedAesGcmAead, "decrypt", broken)
    with pytest.raises(TypeError, match="stub cipher bug"):
        RecoveryManager.recover(device, store)
    assert calls[-1].startswith(b"journal|" if write_journal else b"checkpoint|")


def _plant_alias(store, epoch, seq):
    # bit 40 of the sequence lands on the (odd) epoch's low bit, so
    # unchecked it composes to exactly the pinned (epoch, seq)
    assert epoch & 1
    store.put(f"journal/{epoch:012d}/{(1 << 40) + seq}", b"x")


def _swap_checkpoint_name(store, epoch, seq):
    canonical = f"checkpoint/{epoch:012d}"
    store.put(f"checkpoint/{epoch}", store.get(canonical))
    store.delete(canonical)


@pytest.mark.parametrize("plant, message", [
    (lambda store, epoch, seq: store.put("checkpoint/zzz", b"x"), "malformed"),
    (lambda store, epoch, seq: store.put("checkpoint/\u0661", b"x"), "malformed"),
    (lambda store, epoch, seq: store.put(
        f"journal/{epoch:012d}/not-a-seq", b"x"), "malformed"),
    (_plant_alias, "does not fit 40 bits"),
    (_swap_checkpoint_name, "missing from the store"),
], ids=[
    "checkpoint-not-a-number", "checkpoint-unicode-digit", "journal-not-a-seq",
    "journal-seq-aliases-the-pin", "checkpoint-name-not-canonical",
])
def test_hostile_key_names_refuse_boot_typed(plant, message):
    """The store's key *names* are SP-controlled too: a planted name is a
    refused boot, never a ValueError/AssertionError — and never, with
    asserts compiled out, a sequence aliasing onto the NVRAM pin."""
    server, client, device, store, manager = _deployment()
    client.access(b"key", b"v")
    plant(store, manager.epoch, manager.seq)
    with pytest.raises(RecoveryIntegrityError, match=message):
        RecoveryManager.recover(device, store)


def test_empty_store_refused():
    with pytest.raises(RecoveryIntegrityError, match="no checkpoint"):
        RecoveryManager.recover(_device(), DurableStore())


def test_sessions_and_sync_root_survive_recovery():
    server, client, device, store, manager = _deployment()
    session = SimpleNamespace(
        session_id=b"\x05" * 16,
        user_public=SimpleNamespace(to_bytes=lambda: b"\x06" * 65),
        established_at_us=1234.5,
    )
    manager.note_session(session, device_index=1)
    manager.note_sync_root(b"\x07" * 32)
    _, state, _ = RecoveryManager.recover(device, store)
    record = state.sessions[session.session_id.hex()]
    assert record.user_public == b"\x06" * 65
    assert record.device_index == 1
    assert state.sync_root == b"\x07" * 32


def _fake_session(n):
    return SimpleNamespace(
        session_id=bytes([n]) * 16,
        user_public=SimpleNamespace(to_bytes=lambda: bytes([n]) * 65),
        established_at_us=float(n),
    )


def test_an_ended_session_is_in_no_later_state_however_it_is_recovered():
    """Suspend and close journal a session-end: the record leaves the
    in-memory set, a state replayed from the journal, and the next
    sealed checkpoint — ending one that was never recorded is harmless."""
    server, client, device, store, manager = _deployment()
    stays, ends = _fake_session(1), _fake_session(2)
    manager.note_session(stays, device_index=0)
    manager.note_session(ends, device_index=1)
    manager.note_session_end(ends.session_id)
    manager.note_session_end(b"\x09" * 16)
    written = manager.records_written

    assert set(manager.current_state().sessions) == {stays.session_id.hex()}
    recovered, state, replayed = RecoveryManager.recover(device, store)
    assert replayed == written == 4
    assert set(state.sessions) == {stays.session_id.hex()}
    assert set(recovered._sessions) == set(state.sessions)

    manager.checkpoint()
    _, state, replayed = RecoveryManager.recover(device, store)
    assert replayed == 0 and set(state.sessions) == {stays.session_id.hex()}


def test_arming_after_a_session_exists_is_refused():
    manager = RecoveryManager(_device(), DurableStore(), oram_key=_KEY)
    client = PathOramClient(OramServer(height=4), key=_KEY, block_size=64)
    holding = SimpleNamespace(
        hypervisor=SimpleNamespace(session_count=1, oram_key=_KEY)
    )
    service = SimpleNamespace(devices=[holding], shared_oram_client=client)
    with pytest.raises(ValueError, match="before the first session"):
        manager.attach(service)
    assert client.recovery is None and manager.store.keys() == []
    with pytest.raises(ValueError, match="attach the manager first"):
        manager.checkpoint()


def test_monotonic_counter_rejects_regression():
    counter = MonotonicCounter()
    counter.advance_to(10)
    with pytest.raises(ValueError):
        counter.advance_to(9)
    counter.advance_to(10)  # equal is allowed (idempotent re-pin)
    assert counter.value == 10
