"""Resumption tickets: codec, sealing, epoch binding, single-use."""

import struct

import pytest

from repro.crypto.kdf import hkdf_sha256
from repro.crypto.suite import AcceleratedAesGcmAead
from repro.hypervisor.channel import ChannelError, SecureChannel
from repro.hypervisor.resumption import (
    TICKET_MAGIC,
    StaleTicketError,
    TicketError,
    TicketIntegrityError,
    TicketReplayError,
    TicketSealer,
    TicketState,
)

pytestmark = pytest.mark.serving

KEY = hkdf_sha256(b"\x42" * 32, info=b"ticket-test-key")


def _state(**overrides) -> TicketState:
    fields = dict(
        session_id=b"\x01" * 16,
        user_public=b"\x02" * 33,
        hv_signing_secret=b"\x03" * 32,
        resumption_secret=b"\x04" * 32,
        send_watermark=7,
        recv_watermark=5,
        shard_affinity=3,
        ring_digest="ring-v1",
        minted_at_us=1234.5,
    )
    fields.update(overrides)
    return TicketState(**fields)


# ---------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------

def test_state_codec_roundtrip():
    state = _state()
    assert TicketState.decode(state.encode()) == state


def test_state_codec_defaults_roundtrip():
    state = _state(shard_affinity=-1, ring_digest="", minted_at_us=0.0)
    assert TicketState.decode(state.encode()) == state


def test_state_codec_rejects_trailing_bytes():
    with pytest.raises(TicketIntegrityError):
        TicketState.decode(_state().encode() + b"\x00")


# ---------------------------------------------------------------------
# Sealer: mint/redeem, epoch binding, single use
# ---------------------------------------------------------------------

def test_mint_redeem_roundtrip():
    sealer = TicketSealer(KEY)
    state = _state()
    ticket = sealer.mint(state, epoch=0)
    assert ticket[:4] == TICKET_MAGIC
    assert sealer.redeem(ticket, current_epoch=0) == state
    assert sealer.minted == 1


def test_stale_epoch_is_typed_with_both_epochs():
    sealer = TicketSealer(KEY)
    ticket = sealer.mint(_state(), epoch=0)
    with pytest.raises(StaleTicketError) as excinfo:
        sealer.redeem(ticket, current_epoch=1)
    assert excinfo.value.minted_epoch == 0
    assert excinfo.value.current_epoch == 1
    # Deliberately NOT a KeyError: the fault plane must never absorb a
    # stale ticket as a stale-session retry.
    assert not isinstance(excinfo.value, KeyError)
    assert isinstance(excinfo.value, TicketError)


def test_future_epoch_is_integrity_not_stale():
    sealer = TicketSealer(KEY)
    ticket = sealer.mint(_state(), epoch=2)
    with pytest.raises(TicketIntegrityError):
        sealer.redeem(ticket, current_epoch=1)


def test_replay_is_refused():
    sealer = TicketSealer(KEY)
    ticket = sealer.mint(_state(), epoch=0)
    sealer.redeem(ticket, current_epoch=0)
    with pytest.raises(TicketReplayError) as excinfo:
        sealer.redeem(ticket, current_epoch=0)
    assert (excinfo.value.epoch, excinfo.value.seq) == (0, 0)


def test_tampered_body_fails_integrity():
    sealer = TicketSealer(KEY)
    ticket = bytearray(sealer.mint(_state(), epoch=0))
    ticket[-1] ^= 0x01
    with pytest.raises(TicketIntegrityError):
        sealer.redeem(bytes(ticket), current_epoch=0)


def test_forged_epoch_header_fails_aad_binding():
    # Re-stamp a stale ticket's clear header to the current epoch: the
    # AAD binds the true epoch, so authentication must fail (integrity),
    # not slip through as a valid current-epoch ticket.
    sealer = TicketSealer(KEY)
    ticket = sealer.mint(_state(), epoch=0)
    _, _, seq = struct.unpack_from(">4sQQ", ticket)
    forged = struct.pack(">4sQQ", TICKET_MAGIC, 1, seq) + ticket[20:]
    with pytest.raises(TicketIntegrityError):
        sealer.redeem(forged, current_epoch=1)


@pytest.mark.parametrize(
    "body",
    [
        b"\x00" * 8,                                  # shorter than the fixed part
        _state().encode()[:-3],                       # last blob cut short
        _state().encode()[:32] + b"\xff\xff",          # a length past the end
        _state(ring_digest="").encode()[:-2] + b"\x00\x01\xff",  # not UTF-8
    ],
    ids=["short", "truncated", "length-lie", "non-utf8-ring"],
)
def test_sealed_but_malformed_state_is_an_integrity_error(body):
    """Authentic seal, hostile body: still `TicketIntegrityError`, not a
    `struct.error` / `UnicodeDecodeError` out of the decoder."""
    sealer = TicketSealer(KEY)
    header = sealer.mint(_state(), epoch=0)[:20]   # epoch 0, seq 0
    forged = header + sealer._sealer.seal(0, body, aad=sealer._aad(0, 0))
    with pytest.raises(TicketIntegrityError):
        sealer.redeem(forged, current_epoch=0)


def test_a_cipher_bug_is_not_retyped_as_tampering(monkeypatch):
    """Only what unsealing can raise (`AuthenticationError`, `ValueError`)
    is tamper evidence; anything else propagates as itself."""
    sealer = TicketSealer(KEY)
    ticket = sealer.mint(_state(), epoch=0)

    calls = []

    def broken(self, nonce, data, aad=b""):
        calls.append(aad)
        raise TypeError("stub cipher bug")

    monkeypatch.setattr(AcceleratedAesGcmAead, "decrypt", broken)
    with pytest.raises(TypeError, match="stub cipher bug"):
        sealer.redeem(ticket, current_epoch=0)
    assert calls == [sealer._aad(0, 0)]  # the ticket cipher is the one patched


def test_wrong_key_fails_integrity():
    ticket = TicketSealer(KEY).mint(_state(), epoch=0)
    other = TicketSealer(hkdf_sha256(b"\x43" * 32, info=b"other-key"))
    with pytest.raises(TicketIntegrityError):
        other.redeem(ticket, current_epoch=0)


def test_truncated_and_bad_magic_refused():
    sealer = TicketSealer(KEY)
    with pytest.raises(TicketIntegrityError):
        sealer.redeem(b"HT", current_epoch=0)
    ticket = bytearray(sealer.mint(_state(), epoch=0))
    ticket[:4] = b"NOPE"
    with pytest.raises(TicketIntegrityError):
        sealer.redeem(bytes(ticket), current_epoch=0)


def test_sequences_are_distinct_per_mint():
    sealer = TicketSealer(KEY)
    a = sealer.mint(_state(), epoch=0)
    b = sealer.mint(_state(), epoch=0)
    assert a != b
    assert sealer.redeem(a, current_epoch=0)
    assert sealer.redeem(b, current_epoch=0)


# ---------------------------------------------------------------------
# Channel nonce watermark: the replay contract survives suspend/resume
# ---------------------------------------------------------------------

def test_watermark_roundtrip_preserves_replay_protection():
    key = hkdf_sha256(b"\x07" * 32, info=b"channel-key")
    sender = SecureChannel(key, sign_messages=False)
    receiver = SecureChannel(key, sign_messages=False)
    stale = sender.seal(b"first")
    receiver.open(stale)
    receiver.open(sender.seal(b"second"))

    sent, _ = sender.nonce_watermark
    _, received = receiver.nonce_watermark
    assert sent == 2 and received == 2

    # Resume: fresh channel objects (same key here for simplicity; the
    # real path re-keys), watermarks carried over from the ticket.
    sender2 = SecureChannel(key, sign_messages=False)
    receiver2 = SecureChannel(key, sign_messages=False)
    sender2.restore_nonce_watermark(*sender.nonce_watermark)
    receiver2.restore_nonce_watermark(*receiver.nonce_watermark)

    # New traffic continues the counter space...
    assert receiver2.open(sender2.seal(b"third")) == b"third"
    # ...and anything from the suspended window stays refused.
    with pytest.raises(ChannelError):
        receiver2.open(stale)


def test_watermark_restore_rejects_negatives():
    channel = SecureChannel(hkdf_sha256(b"\x08" * 32), sign_messages=False)
    with pytest.raises(ValueError):
        channel.restore_nonce_watermark(-1, 0)
    with pytest.raises(ValueError):
        channel.restore_nonce_watermark(0, -1)
