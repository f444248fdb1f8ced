"""Hypervisor components: attestation, channel, scheduler, sync."""

from dataclasses import replace

import pytest

from repro.crypto.backend import _OpensslVerifier
from repro.crypto.ecc import N, PrivateKey, Signature
from repro.crypto.keccak import keccak256
from repro.crypto.puf import Manufacturer
from repro.crypto.suite import AcceleratedAesGcmAead, AesGcmAead
from repro.hardware.csu import BootImage, ConfigurationSecurityUnit
from repro.hardware.hevm import HevmCore
from repro.hardware.timing import CostModel, SimClock
from repro.hypervisor.attestation import (
    AttestationError,
    build_report,
    derive_session_key,
    verify_report,
)
from repro.hypervisor.channel import ChannelError, SecureChannel, message_digest
from repro.hypervisor.hypervisor import Hypervisor, SecurityFeatures
from repro.hypervisor.scheduler import HevmScheduler, SchedulingError
from repro.hypervisor.sync import AccountUpdate, BlockSynchronizer, SyncError
from repro.oram.adapter import ObliviousStateBackend
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.state.account import to_address
from repro.state.backend import DictBackend
from repro.state.world import WorldState
from tests.oracles import outcome_on_both_verifiers


# -- attestation ---------------------------------------------------------------


def _device():
    manufacturer = Manufacturer(b"m")
    puf, identity = manufacturer.provision(b"serial")
    csu = ConfigurationSecurityUnit(puf, identity)
    receipt = csu.secure_boot(BootImage("hv", b"fw"))
    device_key = PrivateKey.from_bytes(puf.derive_key(b"device-key"))
    return manufacturer, receipt, device_key


def _fresh_keys():
    return (
        PrivateKey.from_bytes(b"\x21" * 32),
        PrivateKey.from_bytes(b"\x22" * 32),
    )


def test_attestation_roundtrip():
    manufacturer, receipt, device_key = _device()
    session_key, dh_key = _fresh_keys()
    nonce = b"\x07" * 32
    report = build_report(receipt, device_key, session_key, dh_key, nonce)
    verify_report(report, manufacturer.root_public_key, nonce)


def test_attestation_nonce_replay_rejected():
    manufacturer, receipt, device_key = _device()
    session_key, dh_key = _fresh_keys()
    report = build_report(receipt, device_key, session_key, dh_key, b"\x01" * 32)
    with pytest.raises(AttestationError):
        verify_report(report, manufacturer.root_public_key, b"\x02" * 32)


def test_attestation_forged_device_rejected():
    manufacturer, _, _ = _device()
    rogue_mfr, rogue_receipt, rogue_key = (
        lambda m: (m, *_rogue(m))
    )(Manufacturer(b"rogue"))
    session_key, dh_key = _fresh_keys()
    report = build_report(rogue_receipt, rogue_key, session_key, dh_key, b"\x01" * 32)
    with pytest.raises(AttestationError):
        verify_report(report, manufacturer.root_public_key, b"\x01" * 32)


def _rogue(manufacturer):
    puf, identity = manufacturer.provision(b"serial")
    csu = ConfigurationSecurityUnit(puf, identity)
    receipt = csu.secure_boot(BootImage("hv", b"fw"))
    return receipt, PrivateKey.from_bytes(puf.derive_key(b"device-key"))


def test_attestation_swapped_session_key_rejected():
    manufacturer, receipt, device_key = _device()
    session_key, dh_key = _fresh_keys()
    nonce = b"\x01" * 32
    report = build_report(receipt, device_key, session_key, dh_key, nonce)
    # A MITM substitutes their own DH share: the binding signature breaks.
    mitm_dh = PrivateKey.from_bytes(b"\x66" * 32)
    tampered = replace(report, dh_public=mitm_dh.public_key())
    with pytest.raises(AttestationError):
        verify_report(tampered, manufacturer.root_public_key, nonce)


def _forgeries():
    """The attestation forgeries, each ``(name, report, nonce it answers)``."""
    manufacturer, receipt, device_key = _device()
    session_key, dh_key = _fresh_keys()
    nonce = b"\x01" * 32
    honest = build_report(receipt, device_key, session_key, dh_key, nonce)
    rogue_receipt, rogue_key = _rogue(Manufacturer(b"rogue"))
    other_image = device_key.sign(BootImage("hv", b"other").measurement())
    return manufacturer.root_public_key, [
        ("honest", honest, nonce),
        ("replayed nonce", honest, b"\x02" * 32),
        ("forged endorsement",
         build_report(rogue_receipt, rogue_key, session_key, dh_key, nonce), nonce),
        ("wrong image signature", build_report(
            replace(receipt, signature=other_image), device_key, session_key, dh_key, nonce
        ), nonce),
        ("image signature out of range", build_report(
            replace(receipt, signature=Signature(N, 1)), device_key, session_key, dh_key,
            nonce,
        ), nonce),
        ("wrong session binding",
         replace(honest, dh_public=PrivateKey.from_bytes(b"\x66" * 32).public_key()),
         nonce),
    ]


def test_attestation_forgeries_get_one_verdict_from_both_verifiers():
    """The chain's three signature checks run on OpenSSL's verifier.
    Each one's key, hash and signature also go through the table-free
    ``PublicKey.verify``, for the same verdict and message; the honest
    report passes all three and each forgery fails at its own check."""
    manufacturer_public, cases = _forgeries()
    verdicts = {
        name: outcome_on_both_verifiers(
            lambda: verify_report(report, manufacturer_public, nonce)
        )
        for name, report, nonce in cases
    }
    assert verdicts == {
        "honest": (("returned", None), 3),
        "replayed nonce": (
            (AttestationError, "nonce mismatch (replayed report?)"), 0
        ),
        "forged endorsement": (
            (AttestationError, "boot chain invalid: r mismatch"), 1
        ),
        "wrong image signature": (
            (AttestationError, "boot chain invalid: r mismatch"), 2
        ),
        "image signature out of range": (
            (AttestationError, "boot chain invalid: signature scalars out of range"), 2
        ),
        "wrong session binding": (
            (AttestationError, "session binding signature invalid"), 3
        ),
    }


def test_session_key_agreement():
    a_dh = PrivateKey.from_bytes(b"\x31" * 32)
    b_dh = PrivateKey.from_bytes(b"\x32" * 32)
    transcript = b"shared-transcript"
    key_a = derive_session_key(a_dh, b_dh.public_key(), transcript)
    key_b = derive_session_key(b_dh, a_dh.public_key(), transcript)
    assert key_a == key_b
    assert derive_session_key(a_dh, b_dh.public_key(), b"other") != key_a


# -- secure channel ---------------------------------------------------------------


_ALICE_KEY = PrivateKey.from_bytes(b"\x41" * 32)


def _channel_pair(sign=True, tier="hashlib"):
    """Two endpoints on the crypto path (``hashlib``), or, for
    ``tier="reference"``, with its pure-Python oracles swapped in: the
    table-free AES-GCM and ``PublicKey.verify``."""
    key = b"\x55" * 32
    bob_key = PrivateKey.from_bytes(b"\x42" * 32)
    alice = SecureChannel(
        key, own_signing_key=_ALICE_KEY,
        peer_verify_key=bob_key.public_key(), sign_messages=sign,
    )
    bob = SecureChannel(
        key, own_signing_key=bob_key,
        peer_verify_key=_ALICE_KEY.public_key(), sign_messages=sign,
    )
    if tier == "reference":
        for channel in (alice, bob):
            channel._cipher = AesGcmAead(key)
            channel._peer_verifier = channel._peer_verifier.public_key
    return alice, bob


def test_channel_roundtrip():
    alice, bob = _channel_pair()
    sealed = alice.seal(b"bundle bytes")
    assert bob.open(sealed) == b"bundle bytes"


def test_channel_tamper_detected():
    alice, bob = _channel_pair(sign=False)
    sealed = alice.seal(b"bundle bytes")
    bad = replace(sealed, ciphertext=sealed.ciphertext[:-1] + b"\x00")
    with pytest.raises(ChannelError):
        bob.open(bad)


def test_channel_signature_enforced():
    alice, bob = _channel_pair(sign=True)
    sealed = alice.seal(b"bundle")
    unsigned = replace(sealed, signature=None)
    with pytest.raises(ChannelError):
        bob.open(unsigned)


def test_channel_wrong_signer_rejected():
    alice, bob = _channel_pair(sign=True)
    mallory = SecureChannel(
        b"\x55" * 32,
        own_signing_key=PrivateKey.from_bytes(b"\x99" * 32),
        peer_verify_key=PrivateKey.from_bytes(b"\x41" * 32).public_key(),
    )
    sealed = mallory.seal(b"fake bundle")
    with pytest.raises(ChannelError):
        bob.open(sealed)


def test_a_channel_and_a_hypervisor_built_without_a_tier_get_the_default():
    """No tier can be named any more: a channel, and a session channel
    the hypervisor builds, get the one crypto path — OpenSSL's AES-GCM
    and OpenSSL's verifier (``cryptography`` is a dependency, so nothing
    falls back)."""
    expected = (AcceleratedAesGcmAead, _OpensslVerifier)
    alice, _bob = _channel_pair()
    assert (type(alice._cipher), type(alice._peer_verifier)) == expected

    puf, identity = Manufacturer(b"m").provision(b"serial")
    hypervisor = Hypervisor(
        ConfigurationSecurityUnit(puf, identity), BootImage("hv", b"fw"), _cores(1),
        SimClock(), CostModel(), DictBackend(), None, SecurityFeatures.from_level("ES"),
    )
    report, session_key, dh_key = hypervisor.begin_attestation(b"\x07" * 32)
    user = PrivateKey.from_bytes(b"\x43" * 32).public_key()
    session_id = hypervisor.establish_session(report, session_key, dh_key, user, user)
    channel = hypervisor._session(session_id).channel
    assert (type(channel._cipher), type(channel._peer_verifier)) == expected


def test_channel_nonces_advance():
    alice, bob = _channel_pair()
    first = alice.seal(b"a")
    second = alice.seal(b"b")
    assert first.nonce != second.nonce
    assert bob.open(first) == b"a"
    assert bob.open(second) == b"b"


@pytest.mark.parametrize("length", [0, 11, 13])
@pytest.mark.parametrize("sign", [True, False], ids=["signed", "unsigned"])
@pytest.mark.parametrize("tier", ["hashlib", "reference"])
def test_a_wrong_length_nonce_is_a_channel_error_and_moves_no_watermark(
    tier, sign, length
):
    """The nonce is host-supplied.  One of the wrong length — even signed
    by the genuine peer — is refused as a ``ChannelError`` before it is
    read as a counter or reaches the cipher, and the watermark stays:
    on the crypto path and with its oracles swapped in alike."""
    alice, bob = _channel_pair(sign=sign, tier=tier)
    assert bob.open(alice.seal(b"first")) == b"first"
    sealed = alice.seal(b"bundle")
    nonce = (5).to_bytes(length, "big") if length else b""
    bad = replace(
        sealed,
        nonce=nonce,
        signature=_ALICE_KEY.sign(message_digest(nonce, sealed.ciphertext)) if sign else None,
    )
    with pytest.raises(ChannelError, match=f"nonce is {length} bytes, expected 12"):
        bob.open(bad)
    assert bob.nonce_watermark == (0, 1)
    assert bob.open(sealed) == b"bundle"


@pytest.mark.parametrize("tier", ["hashlib", "reference"])
def test_a_signature_over_the_former_keccak_digest_is_refused(tier):
    """The channel signs a labelled SHA-256 digest.  The genuine peer's
    signature over the Keccak-256 digest the channel used to sign is a
    bad signature, refused before the cipher, and the watermark stays:
    by OpenSSL's verifier and by ``PublicKey.verify`` alike."""
    alice, bob = _channel_pair(tier=tier)
    sealed = alice.seal(b"bundle")
    assert message_digest(sealed.nonce, sealed.ciphertext) != keccak256(
        sealed.nonce + sealed.ciphertext
    )
    old = replace(
        sealed,
        signature=_ALICE_KEY.sign(keccak256(sealed.nonce + sealed.ciphertext)),
    )
    with pytest.raises(ChannelError, match="bad message signature"):
        bob.open(old)
    assert bob.nonce_watermark == (0, 0)
    assert bob.open(sealed) == b"bundle"


# -- scheduler ------------------------------------------------------------------------


def _cores(n):
    clock = SimClock()
    return [HevmCore(i, clock, CostModel()) for i in range(n)]


def test_scheduler_exclusive_assignment():
    cores = _cores(2)
    scheduler = HevmScheduler(cores)
    a1 = scheduler.acquire(b"s1", 1.0)
    a2 = scheduler.acquire(b"s2", 1.0)
    assert a1.core is not a2.core
    assert (a1.session_id, a2.session_id) == (b"s1", b"s2")
    assert scheduler.idle_count == 0
    # No queue inside the device: a busy pool refuses, typed.
    with pytest.raises(SchedulingError, match="exhausted"):
        scheduler.acquire(b"s3", 1.0)


def test_release_resets_core():
    scheduler = HevmScheduler(_cores(1))
    assignment = scheduler.acquire(b"s1", 0.0)
    assignment.core.ws_cache.put(("secret",), 42)
    assignment.core.l2.push_frame(1024)
    scheduler.release(assignment.core)
    assert assignment.core.ws_cache.get(("secret",)) is None
    assert assignment.core.l2.depth == 0
    assert not assignment.core.busy


def test_double_release_rejected():
    scheduler = HevmScheduler(_cores(1))
    assignment = scheduler.acquire(b"s1", 0.0)
    scheduler.release(assignment.core)
    with pytest.raises(SchedulingError):
        scheduler.release(assignment.core)


def test_scheduler_stats_track_full_lifecycle():
    scheduler = HevmScheduler(_cores(1))
    stats = scheduler.stats
    assert stats.bundles_started == 0

    first = scheduler.acquire(b"s1", 20.0)
    assert stats.bundles_started == 1
    assert stats.bundles_completed == 0
    scheduler.release(first.core)
    assert stats.bundles_completed == 1

    # The released core is the one the next session gets.
    second = scheduler.acquire(b"s2", 40.0)
    assert second.core is first.core
    assert second.started_at_us == 40.0
    scheduler.release(second.core)
    assert stats.bundles_started == 2
    assert stats.bundles_completed == 2


# -- block synchronization -----------------------------------------------------------


def _oram_backend():
    server = OramServer(height=8)
    client = PathOramClient(server, key=b"x" * 32)
    return ObliviousStateBackend(client)


def _world_with_account():
    world = WorldState()
    address = to_address(0xAB)
    account = world.ensure(address)
    account.balance = 1000
    account.nonce = 1
    account.code = b"\x60\x01"
    account.storage[5] = 50
    return world, address


def _honest_update(world, address):
    return AccountUpdate(
        address=address,
        account_proof=world.prove_account(address),
        slots={5: 50},
        storage_proofs={5: world.prove_storage(address, 5)},
        code=world.accounts[address].code,
    )


def test_sync_applies_verified_update():
    world, address = _world_with_account()
    root = world.commit()
    backend = _oram_backend()
    synchronizer = BlockSynchronizer(backend)
    pages = synchronizer.apply_block(root, [_honest_update(world, address)])
    assert pages == 3  # the account page, one storage group, one code page
    assert backend.get_meta(address).balance == 1000
    assert backend.get_storage(address, 5) == 50
    assert backend.get_code(address) == b"\x60\x01"
    assert synchronizer.stats.storage_slots_verified == 1

    # The next block clears the slot and moves the balance: two pages,
    # no code, and the record beside the cleared one is left alone.
    world.apply_writes({}, {}, {(address, 6): 60}, {})
    root = world.commit()
    synchronizer.apply_block(root, [AccountUpdate(
        address, world.prove_account(address),
        slots={6: 60}, storage_proofs={6: world.prove_storage(address, 6)},
    )])
    world.apply_writes({address: 7}, {}, {(address, 5): 0}, {})
    root = world.commit()
    pages = synchronizer.apply_block(root, [AccountUpdate(
        address, world.prove_account(address),
        slots={5: 0}, storage_proofs={5: world.prove_storage(address, 5)},
    )])
    assert pages == 2
    assert backend.get_meta(address) == world.get_meta(address)
    assert backend.get_storage(address, 5) == 0
    assert backend.get_storage(address, 6) == 60
    assert backend.get_code(address) == b"\x60\x01"


def _assert_rejected(synchronizer, backend, root, update, address):
    with pytest.raises(SyncError):
        synchronizer.apply_block(root, [update])
    assert synchronizer.stats.proofs_rejected == 1
    assert not backend.get_meta(address).exists  # nothing ingested
    assert backend.get_storage(address, 5) == 0


def test_sync_rejects_tampered_balance():
    world, address = _world_with_account()
    root = world.commit()
    backend = _oram_backend()
    update = _honest_update(world, address)
    # The SP lies about the balance: the record it proves is another world's.
    forked = world.copy()
    forked.accounts[address].balance = 10**18
    forked.commit()
    update.account_proof = forked.prove_account(address)
    _assert_rejected(BlockSynchronizer(backend), backend, root, update, address)


def test_sync_rejects_tampered_code():
    world, address = _world_with_account()
    root = world.commit()
    backend = _oram_backend()
    update = _honest_update(world, address)
    update.code = b"\x60\x66"  # malicious bytecode swap
    _assert_rejected(BlockSynchronizer(backend), backend, root, update, address)


def test_sync_rejects_tampered_storage():
    world, address = _world_with_account()
    root = world.commit()
    # A proof that does carry 999 hangs from a different storage root
    # than the one the account proof pins.
    forked = world.copy()
    forked.accounts[address].storage[5] = 999
    for proof in (world.prove_storage(address, 5), forked.prove_storage(address, 5)):
        backend = _oram_backend()
        update = _honest_update(world, address)
        update.slots[5], update.storage_proofs[5] = 999, proof
        _assert_rejected(BlockSynchronizer(backend), backend, root, update, address)


def test_sync_rejects_phantom_account():
    world, _ = _world_with_account()
    root = world.commit()
    phantom = to_address(0xFEED)
    proof = world.prove_account(phantom)  # non-membership proof
    for claim in (
        AccountUpdate(phantom, proof, slots={5: 5}, storage_proofs={5: []}),
        AccountUpdate(phantom, proof, code=b"\x60\x01"),
    ):
        backend = _oram_backend()
        _assert_rejected(BlockSynchronizer(backend), backend, root, claim, phantom)


def test_security_features_levels():
    raw = SecurityFeatures.from_level("raw")
    assert not raw.encryption and not raw.oram_storage
    es = SecurityFeatures.from_level("ES")
    assert es.encryption and es.signatures and not es.oram_storage
    eso = SecurityFeatures.from_level("ESO")
    assert eso.oram_storage and not eso.oram_code
    full = SecurityFeatures.from_level("full")
    assert full.oram_code and full.prefetch
    with pytest.raises(ValueError):
        SecurityFeatures.from_level("bogus")


def test_channel_rejects_replay():
    alice, bob = _channel_pair()
    first = alice.seal(b"bundle-1")
    assert bob.open(first) == b"bundle-1"
    with pytest.raises(ChannelError):
        bob.open(first)  # the SP re-submits the old bundle


def test_channel_rejects_reordering():
    alice, bob = _channel_pair()
    first = alice.seal(b"bundle-1")
    second = alice.seal(b"bundle-2")
    assert bob.open(second) == b"bundle-2"
    with pytest.raises(ChannelError):
        bob.open(first)  # older nonce after a newer one
