"""The user-side pre-execution client.

Performs the full trust-establishment dance before sending anything:
verify the attestation report against the Manufacturer's public key and
the pinned firmware measurement, run DHKE, then exchange bundles and
traces over the secure channel.  A user following this flow cannot be
served by a fake pre-executor (attack A1) or fed tampered traces (A4).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.crypto.ecc import PrivateKey, PublicKey
from repro.hardware.timing import TimeBreakdown
from repro.hypervisor.attestation import derive_session_key, verify_report
from repro.hypervisor.bundle_codec import (
    TraceReport,
    TransactionBundle,
    decode_trace_report,
    encode_bundle,
)
from repro.hypervisor.channel import SecureChannel
from repro.core.device import RELEASE_MEASUREMENT, HarDTAPEDevice
from repro.core.service import HarDTAPEService
from repro.state.blocks import Transaction


@dataclass
class UserSession:
    """A live attested session with one device."""

    device: HarDTAPEDevice
    session_id: bytes
    channel: SecureChannel
    # Retained for suspend/resume: the user's session signing key and
    # the hypervisor's attested session verify key, so a resumed channel
    # re-binds the same identities without re-attesting.
    signing_key: PrivateKey
    peer_public: PublicKey


@dataclass
class SuspendedSession:
    """Client-held resumption state for a session the hypervisor evicted.

    The ticket is opaque (sealed under the device's PUF-bound key); the
    resumption secret arrived over the old secure channel.  Presenting
    the ticket plus a fresh nonce re-keys in one round-trip — no
    attestation report, no DHKE.
    """

    device: HarDTAPEDevice
    session_id: bytes           # the suspended (pre-resume) session id
    ticket: bytes
    resumption_secret: bytes
    signing_key: PrivateKey
    peer_public: PublicKey
    send_watermark: int         # user-side channel counters at suspend
    recv_watermark: int


class PreExecutionClient:
    """What an HFT designer runs on their own machine."""

    def __init__(
        self,
        manufacturer_public: PublicKey,
        expected_measurement: bytes = RELEASE_MEASUREMENT,
        rng_seed: bytes | None = None,
    ) -> None:
        self._manufacturer_public = manufacturer_public
        self._expected_measurement = expected_measurement
        self._seed = rng_seed or os.urandom(32)
        self._counter = 0

    def _fresh_key(self) -> PrivateKey:
        from repro.crypto.kdf import hkdf_sha256

        self._counter += 1
        return PrivateKey.from_bytes(
            hkdf_sha256(self._seed, info=b"user-key%d" % self._counter)
        )

    def connect(
        self, service: HarDTAPEService, device: HarDTAPEDevice | None = None
    ) -> UserSession:
        """Attest a device and establish the secure channel.

        Without an explicit ``device`` the service routes to an idle one
        (raising :class:`~repro.core.service.NoIdleHevmError` when
        saturated).  The serving gateway passes the device it selected so
        sessions land where capacity is.
        """
        if device is None:
            device = service.pick_device()
        nonce = self._fresh_key().secret.to_bytes(32, "big")

        report, hv_session_key, hv_dh_key = device.hypervisor.begin_attestation(nonce)
        verify_report(
            report,
            self._manufacturer_public,
            nonce,
            expected_measurement=self._expected_measurement,
        )

        user_session_key = self._fresh_key()
        user_session_public = user_session_key.public_key()
        user_dh_key = self._fresh_key()
        session_id = device.hypervisor.establish_session(
            report,
            hv_session_key,
            hv_dh_key,
            user_session_public,
            user_dh_key.public_key(),
        )
        transcript = (
            nonce + report.session_public.to_bytes() + user_session_public.to_bytes()
        )
        aes_key = derive_session_key(user_dh_key, report.dh_public, transcript)
        channel = SecureChannel(
            aes_key,
            own_signing_key=user_session_key,
            peer_verify_key=report.session_public,
            sign_messages=device.hypervisor.features.signatures,
        )
        return UserSession(
            device=device,
            session_id=session_id,
            channel=channel,
            signing_key=user_session_key,
            peer_public=report.session_public,
        )

    # ------------------------------------------------------------------
    # Session resumption (repro.async_serving)
    # ------------------------------------------------------------------

    def suspend(self, session: UserSession) -> SuspendedSession:
        """Park a session: the hypervisor seals it into a ticket and
        evicts it; the client keeps the ticket and resumption secret."""
        hypervisor = session.device.hypervisor
        ticket, sealed_secret = hypervisor.mint_resumption_ticket(
            session.session_id
        )
        if hypervisor.features.encryption:
            secret = session.channel.open(sealed_secret)
        else:
            secret = bytes(sealed_secret)
        sent, received = session.channel.nonce_watermark
        return SuspendedSession(
            device=session.device,
            session_id=session.session_id,
            ticket=ticket,
            resumption_secret=secret,
            signing_key=session.signing_key,
            peer_public=session.peer_public,
            send_watermark=sent,
            recv_watermark=received,
        )

    def resume(self, suspended: SuspendedSession) -> UserSession:
        """Redeem a ticket for a live session in one round-trip, on the
        device that minted it (the sealing key is PUF-bound).  Raises
        :class:`~repro.hypervisor.resumption.StaleTicketError` if the
        hypervisor restarted since the mint — reconnect with
        :meth:`connect` instead.
        """
        from repro.crypto.kdf import hkdf_sha256

        device = suspended.device
        nonce = self._fresh_key().secret.to_bytes(32, "big")
        session_id = device.hypervisor.resume_session(suspended.ticket, nonce)
        aes_key = hkdf_sha256(
            suspended.resumption_secret,
            salt=b"hardtape-resume",
            info=nonce + suspended.session_id,
        )
        channel = SecureChannel(
            aes_key,
            own_signing_key=suspended.signing_key,
            peer_verify_key=suspended.peer_public,
            sign_messages=device.hypervisor.features.signatures,
        )
        channel.restore_nonce_watermark(
            suspended.send_watermark, suspended.recv_watermark
        )
        return UserSession(
            device=device,
            session_id=session_id,
            channel=channel,
            signing_key=suspended.signing_key,
            peer_public=suspended.peer_public,
        )

    def close(self, session: UserSession) -> None:
        """End a session: the hypervisor scrubs it (workflow step 10).
        A suspended one needs no close — the device holds nothing."""
        session.device.hypervisor.close_session(session.session_id)

    def pre_execute(
        self,
        service: HarDTAPEService,
        session: UserSession,
        transactions: list[Transaction],
    ) -> tuple[TraceReport, float, list[TimeBreakdown]]:
        """Simulate a bundle; returns (trace report, elapsed µs, breakdowns)."""
        bundle = TransactionBundle(
            transactions=tuple(transactions),
            block_number=service.synced_height,
        )
        payload = encode_bundle(bundle)
        if session.device.hypervisor.features.encryption:
            sealed = session.channel.seal(payload)
        else:
            sealed = payload
        sealed_out, elapsed, breakdowns, _ = service.submit_bundle(
            session.device, session.session_id, sealed
        )
        if session.device.hypervisor.features.encryption:
            report_bytes = session.channel.open(sealed_out)
        else:
            report_bytes = sealed_out
        report = decode_trace_report(report_bytes)
        if report.bundle_id != bundle.bundle_id():
            raise ValueError("trace report is for a different bundle")
        return report, elapsed, breakdowns
