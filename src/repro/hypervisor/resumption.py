"""Resumption tickets: amortizing attestation across reconnects.

The full handshake — attestation report (45 ms) plus DHKE (55 ms) — is
paid once per session.  For the paper's target deployment (an SP
fronting tens of thousands of *intermittent* users) that cost dominates:
a user who reconnects every few seconds spends more hypervisor time
re-proving the platform than pre-executing.  HECTOR-V's answer, and the
layered pVM attestation flow it inspired, is to attest the platform
once and derive cheap per-session credentials from that root of trust.

Here the hypervisor seals the whole session state — channel key
material (via a fresh resumption secret), both signing identities and
the channel nonce watermark — into an opaque **ticket** under a
CSU-derived key (PUF-bound, re-derivable on every boot of the same
chip, never available off-package).  The user holds the ticket; the
hypervisor holds *nothing* — the session is evicted, which is what
lets one process keep 10k+ logical sessions alive without 10k channel
objects.  Where the session is served next is not the ticket's to say:
the shard router places every request afresh.

Anti-rollback binding: the ticket's AAD binds the hypervisor
``generation`` (the cold-restart counter the recovery plane already
maintains) as an epoch.  A ticket minted before a crash names a dead
epoch and is refused with a typed :class:`StaleTicketError` — never a
retryable fault, because retrying cannot make a scrubbed secret
reappear; the caller must fall back to a full handshake.  The epoch is
carried in the clear *and* in the AAD, so a header forged to the
current epoch fails authentication instead of slipping through.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.crypto.suite import AuthenticationError, CounterNonceSealer

TICKET_MAGIC = b"HTK1"
_HEADER = struct.Struct(">4sQQ")  # magic, epoch, seq

# The recovery plane's composite-counter split: epoch in the high bits,
# per-epoch mint sequence in the low 40.  Reusing the construction keeps
# the AEAD nonce structurally unique across restarts under one PUF key.
_SEQ_BITS = 40
_SEQ_MASK = (1 << _SEQ_BITS) - 1


class TicketError(Exception):
    """Base class for every resumption-ticket refusal."""


class StaleTicketError(TicketError):
    """The ticket names a dead epoch: the hypervisor restarted since mint.

    Deliberately NOT a subclass of ``KeyError``/``UnknownSessionError``
    and never listed in ``repro.faults.policy.RECOVERABLE_ERRORS``: the
    pre-crash session secrets were scrubbed, so no retry or supervisor
    intervention can honor this ticket.  The only correct reaction is a
    fresh attestation+DHKE handshake.
    """

    def __init__(self, minted_epoch: int, current_epoch: int) -> None:
        super().__init__(
            f"resumption ticket minted at epoch {minted_epoch} refused "
            f"at epoch {current_epoch} (hypervisor restarted since mint)"
        )
        self.minted_epoch = minted_epoch
        self.current_epoch = current_epoch


class TicketIntegrityError(TicketError):
    """The ticket failed structural or cryptographic validation.

    Covers truncation, a bad magic, a forged epoch header (the AAD
    binding catches it), a future epoch, and AEAD failure.  Distinct
    from :class:`StaleTicketError` so callers can tell "re-handshake"
    from "someone tampered with the ticket".
    """


class TicketReplayError(TicketIntegrityError):
    """A ticket was presented twice: single-use is part of the contract.

    Replaying a redeemed ticket would rewind the resumed channel's nonce
    watermark — exactly the replay window counter nonces exist to close.
    """

    def __init__(self, epoch: int, seq: int) -> None:
        super().__init__(
            f"resumption ticket (epoch {epoch}, seq {seq}) already redeemed"
        )
        self.epoch = epoch
        self.seq = seq


@dataclass(frozen=True)
class TicketState:
    """The sealed session state a ticket carries (never on the wire bare)."""

    session_id: bytes
    user_public: bytes          # user's session ECDSA verify key (SEC1)
    hv_signing_secret: bytes    # hypervisor's session ECDSA signing key
    resumption_secret: bytes    # 32-byte PSK the resumed channel re-keys from
    send_watermark: int         # hypervisor-side channel counters at suspend
    recv_watermark: int

    def encode(self) -> bytes:
        parts = [struct.pack(">qq", self.send_watermark, self.recv_watermark)]
        for blob in (self.session_id, self.user_public,
                     self.hv_signing_secret, self.resumption_secret):
            parts.append(struct.pack(">H", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "TicketState":
        """Inverse of :meth:`encode`; anything else is a
        :class:`TicketIntegrityError`, never a ``struct.error``."""
        try:
            send, recv = struct.unpack_from(">qq", data, 0)
            offset = struct.calcsize(">qq")
            blobs = []
            for _ in range(4):
                (length,) = struct.unpack_from(">H", data, offset)
                offset += 2
                blobs.append(data[offset:offset + length])
                offset += length
        except struct.error as error:
            raise TicketIntegrityError(
                f"malformed ticket state: {error}"
            ) from error
        if offset != len(data):
            raise TicketIntegrityError(
                "ticket state length fields disagree with its size"
            )
        return cls(
            session_id=blobs[0],
            user_public=blobs[1],
            hv_signing_secret=blobs[2],
            resumption_secret=blobs[3],
            send_watermark=send,
            recv_watermark=recv,
        )


@dataclass
class TicketSealer:
    """Mints and redeems tickets under one CSU-derived key.

    One instance lives per hypervisor generation; the key is re-derived
    from the PUF on every boot (same key each time), so uniqueness of
    the AEAD nonce comes from the ``(epoch << 40) | seq`` composite —
    a fresh generation starts a fresh seq space under a fresh epoch.
    """

    key: bytes
    minted: int = 0
    _sealer: CounterNonceSealer = field(init=False, repr=False)
    _spent: set[tuple[int, int]] = field(init=False, repr=False,
                                         default_factory=set)

    def __post_init__(self) -> None:
        self._sealer = CounterNonceSealer(self.key)

    @staticmethod
    def _aad(epoch: int, seq: int) -> bytes:
        return b"resumption-ticket|" + struct.pack(">QQ", epoch, seq)

    def mint(self, state: TicketState, epoch: int) -> bytes:
        seq = self.minted
        self.minted += 1
        if seq > _SEQ_MASK:
            raise TicketError("per-epoch ticket sequence space exhausted")
        composite = (epoch << _SEQ_BITS) | seq
        blob = self._sealer.seal(composite, state.encode(),
                                 aad=self._aad(epoch, seq))
        return _HEADER.pack(TICKET_MAGIC, epoch, seq) + blob

    def redeem(self, ticket: bytes, current_epoch: int) -> TicketState:
        """Validate and open a ticket; single-use, epoch-exact.

        The epoch check runs *before* the AEAD so a stale ticket is
        classified as stale (a recovery-plane fact) rather than as a
        generic authentication failure — which the fault policies would
        happily retry.
        """
        epoch, seq = ticket_header(ticket)
        if epoch > current_epoch:
            raise TicketIntegrityError(
                f"ticket claims future epoch {epoch} (current {current_epoch})"
            )
        if epoch < current_epoch:
            raise StaleTicketError(epoch, current_epoch)
        if (epoch, seq) in self._spent:
            raise TicketReplayError(epoch, seq)
        composite = (epoch << _SEQ_BITS) | seq
        try:
            plain = self._sealer.open(composite, ticket[_HEADER.size:],
                                      aad=self._aad(epoch, seq))
        except (AuthenticationError, ValueError) as exc:
            # All the sealer can raise here: ``epoch`` equals this
            # hypervisor's own generation, so the composite fits the
            # 96-bit nonce and ``to_bytes`` cannot overflow.  Re-typed on
            # purpose: a raw AuthenticationError is in the fault plane's
            # RECOVERABLE_ERRORS (wire corruption is transient); a forged
            # ticket is not transient.
            raise TicketIntegrityError("ticket failed authentication") from exc
        self._spent.add((epoch, seq))
        return TicketState.decode(plain)


__all__ = [
    "StaleTicketError",
    "TicketError",
    "TicketIntegrityError",
    "TicketReplayError",
    "TicketSealer",
    "TicketState",
    "TICKET_MAGIC",
    "ticket_header",
]


def ticket_header(ticket: bytes) -> tuple[int, int]:
    """Parse ``(epoch, seq)`` from a ticket's clear header.

    The header is authenticated (it doubles as the AEAD AAD), so these
    values are safe to surface in telemetry: a forged header fails
    redemption.  Raises :class:`TicketIntegrityError` on truncation or
    a bad magic — same refusals :meth:`TicketSealer.redeem` applies.
    """
    if len(ticket) < _HEADER.size:
        raise TicketIntegrityError(
            f"ticket too short for header ({len(ticket)} bytes)"
        )
    magic, epoch, seq = _HEADER.unpack_from(ticket)
    if magic != TICKET_MAGIC:
        raise TicketIntegrityError(f"bad ticket magic {magic!r}")
    return epoch, seq
