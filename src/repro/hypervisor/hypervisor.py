"""The Hypervisor: the only software on the chip (paper §IV).

Responsibilities, in workflow order: boot under the CSU (1), answer
remote attestation and set up per-user secure channels (2), queue and
exclusively assign bundles to idle HEVMs (3), handle HEVM exceptions —
layer-3 swaps and world-state queries (5–8) — return sealed traces (9),
reset cores (10), and synchronize new blocks into the ORAM (11).  It
also owns the ORAM key, shared across HarDTAPE devices of one
deployment through device-to-device DHKE.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from repro.rlp import codec as rlp
from repro.crypto.ecc import PrivateKey, PublicKey
from repro.crypto.kdf import Drbg, hkdf_sha256
from repro.evm.interpreter import ChainContext
from repro.hardware.csu import BootImage, BootReceipt, ConfigurationSecurityUnit
from repro.hardware.hevm import HevmCore
from repro.hardware.timing import CostModel, SimClock, TimeBreakdown
from repro.hypervisor.attestation import (
    AttestationReport,
    build_report,
    derive_session_key,
)
from repro.hypervisor.bundle_codec import (
    TraceReport,
    decode_bundle,
    encode_trace_report,
    trace_from_result,
)
from repro.hypervisor.channel import SealedMessage, SecureChannel
from repro.hypervisor.resumption import TicketSealer, TicketState, ticket_header
from repro.hypervisor.scheduler import HevmScheduler
from repro.hypervisor.sync import BlockSynchronizer
from repro.hypervisor.receipts import (
    ReceiptIndexError,
    ReceiptMissingError,
    SignedReceipt,
    make_receipt,
)
from repro.oram.adapter import ObliviousStateBackend
from repro.state.backend import StateBackend
from repro.telemetry.tracer import tracer_for
from repro.telemetry.unified import (
    MerkleProof,
    StepTraceRecord,
    UnifiedStepTrace,
    from_struct_logs,
)


@dataclass
class SecurityFeatures:
    """Which of the paper's protections are active (-raw … -full)."""

    encryption: bool = True       # E: AES-GCM on user I/O and layer 3
    signatures: bool = True       # S: ECDSA on user I/O
    oram_storage: bool = True     # O: Path ORAM for K-V world state
    oram_code: bool = True        # full: Path ORAM for bytecode too
    swap_noise: bool = True
    prefetch: bool = True
    # Extension (not in the paper): pad each bundle's total ORAM query
    # count to the next power of two, hiding the count itself (which
    # otherwise correlates with contract code size — see the
    # fingerprinting benchmark).
    query_padding: bool = False
    # Extension (ROADMAP receipts item): sign the Merkle commitment of
    # every transaction's step trace per completed bundle, so users can
    # spot-check results against their own node (repro.hypervisor.receipts).
    receipts: bool = False

    @classmethod
    def from_level(cls, level: str) -> "SecurityFeatures":
        """Levels as in Figure 4: raw, E, ES, ESO, full."""
        levels = {
            "raw": cls(False, False, False, False, False, False),
            "E": cls(True, False, False, False, True, False),
            "ES": cls(True, True, False, False, True, False),
            "ESO": cls(True, True, True, False, True, False),
            "full": cls(True, True, True, True, True, True),
        }
        try:
            return levels[level]
        except KeyError:
            raise ValueError(f"unknown security level {level!r}") from None


class BundleRejected(Exception):
    """Bundle refused at admission, before any core is assigned: over the
    SP's gas cap (§IV-B DoS protection), the wrong message shape for the
    device's security level, or bytes that are not a bundle."""


class HypervisorCrashError(Exception):
    """The Hypervisor died (power loss, firmware panic, watchdog reset).

    All volatile trusted state — live sessions, the in-memory ORAM
    client, core assignments — is gone.  Defined here (not in
    ``repro.faults``) because the crash is a property of the substrate;
    the injector merely decides *when* it happens.  Recovery is a cold
    restart through ``repro.recovery``: unseal checkpoint, replay
    journal, re-attest every session.
    """

    def __init__(self, serial: bytes, phase: str) -> None:
        super().__init__(
            f"hypervisor on device {serial.hex()[:8]} crashed during {phase}"
        )
        self.serial = serial
        self.phase = phase


class UnknownSessionError(KeyError):
    """A bundle arrived for a session id this Hypervisor never established.

    Subclasses :class:`KeyError` for backward compatibility; carries the
    offending session id so the service layer can log/account it.
    """

    def __init__(self, session_id: bytes) -> None:
        super().__init__(f"unknown session {session_id.hex()}")
        self.session_id = session_id


@dataclass
class Session:
    """One attested user session — volatile, never checkpointed."""

    session_id: bytes
    channel: SecureChannel
    user_public: PublicKey
    established_at_us: float
    # The hypervisor-side session signing key: signs receipts, and is
    # sealed into a resumption ticket so the resumed channel signs under
    # the same attested identity.
    signing_key: PrivateKey


@dataclass
class HypervisorStats:
    bundles_executed: int = 0
    crypto_time_us: float = 0.0


class Hypervisor:
    """The trusted firmware orchestrating the whole chip."""

    def __init__(
        self,
        csu: ConfigurationSecurityUnit,
        boot_image: BootImage,
        cores: list[HevmCore],
        clock: SimClock,
        cost: CostModel,
        direct_backend: StateBackend,
        oram_backend: ObliviousStateBackend | None,
        features: SecurityFeatures,
        oram_key: bytes | None = None,
        max_bundle_gas: int | None = 2_000_000_000,
        generation: int = 0,
    ) -> None:
        self._csu = csu
        self.boot_receipt: BootReceipt = csu.secure_boot(boot_image)
        self._device_key = PrivateKey.from_bytes(
            csu._puf.derive_key(b"device-key")  # re-derived on chip, as at boot
        )
        self.clock = clock
        self.cost = cost
        self.scheduler = HevmScheduler(cores, clock=clock)
        self._direct_backend = direct_backend
        self._oram_backend = oram_backend
        self.features = features
        self.synchronizer = (
            BlockSynchronizer(oram_backend, clock=clock, cost=cost)
            if oram_backend is not None
            else None
        )
        # ``generation`` counts cold restarts of this device's firmware.
        # Each generation salts its DRBG personalization so a restarted
        # Hypervisor never replays the random stream the pre-crash one
        # already consumed (session keys, DH keys).  Generation 0 keeps
        # the historical label, so crash-free runs are byte-identical.
        self.generation = generation
        rng_label = (
            b"hypervisor"
            if generation == 0
            else b"hypervisor-gen%d" % generation
        )
        self._rng: Drbg = csu.secure_rng(rng_label)
        self._sessions: dict[bytes, Session] = {}
        self.stats = HypervisorStats()
        # Crash modelling (``repro.faults`` HYPERVISOR_CRASH): a crashed
        # instance refuses all work; the device builds a *new* instance
        # at the next generation to recover.
        self.crashed = False
        # Recovery seam (``repro.recovery``): a RecoveryManager arms
        # itself here to journal session establishment and sync roots.
        self.recovery = None
        # The most recent Merkle root the synchronizer verified; part of
        # the trusted state a checkpoint must pin.
        self.last_verified_root: bytes | None = None
        # Fault-injection plane (``repro.faults``): ``None`` in production;
        # a :class:`~repro.faults.injector.FaultInjector` arms itself here
        # to exercise the exception paths this firmware is charged with.
        self.faults = None
        # The shared ORAM key (chosen by the first device of a
        # deployment, or received via device-to-device DHKE).
        self.oram_key = oram_key or self._rng.random_bytes(32)
        # §IV-B DoS protection: "The SP can prevent DoS attacks
        # (occupying an HEVM too long) by charging gas fees or setting
        # low gas limits because the gas cost approximately represents
        # the computing resource consumption."
        self.max_bundle_gas = max_bundle_gas
        # Receipts plane (features.receipts): per-bundle signed trace
        # commitments plus the retained step traces that serve Merkle
        # openings to auditors.  Bounded: oldest bundle evicted first.
        self._receipts: dict[bytes, SignedReceipt] = {}
        self._receipt_traces: dict[bytes, tuple[UnifiedStepTrace, ...]] = {}
        self._receipt_cap = 512

    # ------------------------------------------------------------------
    # Crash modelling
    # ------------------------------------------------------------------

    def crash(self, phase: str) -> HypervisorCrashError:
        """Kill this instance: volatile trusted state is lost, now.

        Returns (does not raise) the typed error so the injector can
        decide how it propagates.  The instance stays permanently dead —
        recovery builds a successor at ``generation + 1``.
        """
        self.crashed = True
        for session_id in list(self._sessions):
            self._leave(session_id, ended=False)
        return HypervisorCrashError(self.boot_receipt.serial, phase)

    def _require_alive(self) -> None:
        if self.crashed:
            raise HypervisorCrashError(self.boot_receipt.serial, "dead-instance")

    # ------------------------------------------------------------------
    # Step 2: attestation and session establishment
    # ------------------------------------------------------------------

    def begin_attestation(
        self, user_nonce: bytes
    ) -> tuple[AttestationReport, PrivateKey, PrivateKey]:
        """Produce the signed report plus the fresh session/DH keys."""
        self._require_alive()
        session_key = PrivateKey.from_bytes(self._rng.random_bytes(32))
        dh_key = PrivateKey.from_bytes(self._rng.random_bytes(32))
        tracer_for(self.clock).record(
            "attestation.report", "session", self.cost.attestation_us
        )
        self.clock.advance_us(self.cost.attestation_us)
        report = build_report(
            self.boot_receipt, self._device_key, session_key, dh_key, user_nonce
        )
        if self.faults is not None:
            report = self.faults.on_attestation(report, self.clock.now_us)
        return report, session_key, dh_key

    def establish_session(
        self,
        report: AttestationReport,
        session_key: PrivateKey,
        dh_key: PrivateKey,
        user_session_public: PublicKey,
        user_dh_public: PublicKey,
    ) -> bytes:
        """Finish DHKE and create the session's secure channel."""
        self._require_alive()
        transcript = (
            report.user_nonce
            + report.session_public.to_bytes()
            + user_session_public.to_bytes()
        )
        aes_key = derive_session_key(dh_key, user_dh_public, transcript)
        tracer_for(self.clock).record("session.dhke", "session", self.cost.dhke_us)
        self.clock.advance_us(self.cost.dhke_us)
        return self._enter(
            hashlib.sha256(b"session" + transcript).digest()[:16],
            aes_key, session_key, user_session_public,
        )

    # ------------------------------------------------------------------
    # The session table (repro.hypervisor.lifecycle): one way in, one
    # way out, and the recovery record set follows both.
    # ------------------------------------------------------------------

    def _enter(
        self,
        session_id: bytes,
        aes_key: bytes,
        signing_key: PrivateKey,
        user_public: PublicKey,
        watermark: tuple[int, int] | None = None,
    ) -> bytes:
        """A session enters the device (full handshake or redemption)."""
        channel = SecureChannel(
            aes_key,
            own_signing_key=signing_key,
            peer_verify_key=user_public,
            sign_messages=self.features.signatures,
        )
        if watermark is not None:
            channel.restore_nonce_watermark(*watermark)
        session = self._sessions[session_id] = Session(
            session_id, channel, user_public, self.clock.now_us, signing_key
        )
        if self.recovery is not None:
            self.recovery.on_session(session)
        return session_id

    def _leave(self, session_id: bytes, *, ended: bool = True) -> None:
        """A session leaves the device.  Suspend and close also end its
        recovery record; a crash (``ended=False``) journals nothing —
        the records it leaves are who the restart must re-join."""
        if self._sessions.pop(session_id, None) is None:
            raise UnknownSessionError(session_id)
        if ended and self.recovery is not None:
            self.recovery.on_session_end(session_id)

    def _session(self, session_id: bytes) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(session_id)
        return session

    @property
    def session_count(self) -> int:
        """Live (non-suspended) sessions held in hypervisor memory."""
        return len(self._sessions)

    def close_session(self, session_id: bytes) -> None:
        """The user is done (workflow step 10): scrub the session's keys
        and end its recovery record."""
        self._require_alive()
        self._leave(session_id)

    # ------------------------------------------------------------------
    # Session resumption (repro.async_serving): suspend to a sealed
    # ticket, resume in one round-trip without re-attesting.
    # ------------------------------------------------------------------

    @cached_property
    def ticket_sealer(self) -> TicketSealer:
        """Built on first use, so deployments that never suspend a
        session derive no extra key.  The key is PUF-bound — a restarted
        hypervisor re-derives the *same* key, and the epoch
        (= generation) binding is what refuses pre-crash tickets."""
        return TicketSealer(self._csu.derive_sealing_key(b"resumption-ticket"))

    def mint_resumption_ticket(
        self, session_id: bytes
    ) -> tuple[bytes, SealedMessage | bytes]:
        """Seal a session into a ticket; returns ``(ticket, sealed_secret)``.

        The resumption secret travels to the user over the *existing*
        secure channel (the last message it will ever carry); the ticket
        itself is opaque to the user and bound to this generation as an
        anti-rollback epoch.  The session then leaves the device — the
        C10K property: suspended users cost the hypervisor zero bytes,
        volatile or durable.
        """
        self._require_alive()
        session = self._session(session_id)
        secret = self._rng.random_bytes(32)
        # Session/tenant metadata on the span makes suspended
        # sessions distinguishable in the Chrome-trace timeline; the
        # authenticated epoch/seq land after the mint below.
        mint_span = tracer_for(self.clock).record(
            "session.ticket_mint", "session", self.cost.ticket_mint_us,
            session=session_id.hex()[:16],
            tenant=session.user_public.to_bytes().hex()[:16],
        )
        self.clock.advance_us(self.cost.ticket_mint_us)
        if self.features.encryption:
            sealed_secret: SealedMessage | bytes = session.channel.seal(secret)
        else:
            sealed_secret = secret
        # Watermark captured *after* the secret hand-off so the resumed
        # channel's counters sit above every message either side sent.
        sent, received = session.channel.nonce_watermark
        state = TicketState(
            session_id=session_id,
            user_public=session.user_public.to_bytes(),
            hv_signing_secret=session.signing_key.secret.to_bytes(32, "big"),
            resumption_secret=secret,
            send_watermark=sent,
            recv_watermark=received,
        )
        ticket = self.ticket_sealer.mint(state, epoch=self.generation)
        epoch, seq = ticket_header(ticket)
        mint_span.set(epoch=epoch, seq=seq)
        self._leave(session_id)
        return ticket, sealed_secret

    def resume_session(self, ticket: bytes, user_nonce: bytes) -> bytes:
        """Redeem a ticket: re-key and re-register in one round-trip.

        Raises :class:`~repro.hypervisor.resumption.StaleTicketError`
        when the ticket names a pre-restart epoch — the caller must
        fall back to a full handshake — and
        :class:`~repro.hypervisor.resumption.TicketIntegrityError` /
        :class:`~repro.hypervisor.resumption.TicketReplayError` on
        tampering or reuse.  Both channel endpoints derive the fresh
        AES key as ``HKDF(resumption_secret, salt="hardtape-resume",
        info=user_nonce ‖ old_session_id)``, so a stolen ticket without
        the channel-sealed secret opens nothing.
        """
        self._require_alive()
        state = self.ticket_sealer.redeem(ticket, current_epoch=self.generation)
        epoch, seq = ticket_header(ticket)
        tracer_for(self.clock).record(
            "session.resume", "session", self.cost.ticket_resume_us,
            resumed_from=state.session_id.hex()[:16],
            tenant=state.user_public.hex()[:16],
            epoch=epoch,
            seq=seq,
        )
        self.clock.advance_us(self.cost.ticket_resume_us)
        return self._enter(
            hashlib.sha256(
                b"hardtape-resume" + state.session_id + user_nonce
            ).digest()[:16],
            hkdf_sha256(
                state.resumption_secret,
                salt=b"hardtape-resume",
                info=user_nonce + state.session_id,
            ),
            # Not PrivateKey.from_bytes: that maps arbitrary bytes into the
            # scalar range, but this is an exact stored scalar round-trip.
            PrivateKey(int.from_bytes(state.hv_signing_secret, "big")),
            PublicKey.from_bytes(state.user_public),
            watermark=(state.send_watermark, state.recv_watermark),
        )

    # ------------------------------------------------------------------
    # Steps 3–10: bundle execution
    # ------------------------------------------------------------------

    def submit_bundle(
        self,
        session_id: bytes,
        sealed_bundle: SealedMessage | bytes,
        chain: ChainContext,
        charge_fees: bool = True,
    ) -> tuple[SealedMessage | bytes, list[TimeBreakdown], "object"]:
        """Run one bundle end to end; returns the sealed trace report.

        Also returns the per-transaction time breakdowns and the raw run
        stats so benchmarks can decompose Figure 4 without re-running.
        """
        self._require_alive()
        session = self._session(session_id)
        tracer = tracer_for(self.clock)

        # Fixed per-bundle path: interrupt, header check, DMA programming,
        # core activation on entry; trace packing and core scrub on exit.
        tracer.record("bundle.admission", "hypervisor", self.cost.bundle_admission_us)
        self.clock.advance_us(self.cost.bundle_admission_us)
        if self.faults is not None:
            # Crash point A: power loss right after the bundle was
            # admitted but before any core was assigned.
            self.faults.on_bundle_admission(self, self.clock.now_us)

        # Admit the message: decrypt/verify (or accept plaintext in -raw).
        # Its shape is host-supplied, so a mismatch is refused, not asserted.
        expected = SealedMessage if self.features.encryption else (bytes, bytearray)
        if not isinstance(sealed_bundle, expected):
            raise BundleRejected(
                f"{'an encrypting' if self.features.encryption else 'a -raw'} "
                f"device cannot admit a {type(sealed_bundle).__name__} bundle"
            )
        if self.features.encryption:
            if self.faults is not None:
                # The wire between A.E.DMA endpoints: drops surface here,
                # corruption downstream at the tag/signature check.
                sealed_bundle = self.faults.on_channel_receive(
                    sealed_bundle, self.clock.now_us
                )
            payload = session.channel.open(sealed_bundle)
            if self.faults is not None:
                self.faults.after_channel_open(
                    session.channel, sealed_bundle, self.clock.now_us
                )
            self._charge_channel_crypto(len(payload), "open", session.channel)
        else:
            payload = bytes(sealed_bundle)
        try:
            bundle = decode_bundle(payload)
        except rlp.DecodingError as error:
            raise BundleRejected(f"malformed bundle: {error}") from error
        bundle_id = bundle.bundle_id()
        active = tracer.active
        if active is not None:
            active.set(
                bundle=bundle_id.hex()[:16],
                transactions=len(bundle.transactions),
            )

        if self.max_bundle_gas is not None:
            requested = sum(tx.gas_limit for tx in bundle.transactions)
            if requested > self.max_bundle_gas:
                raise BundleRejected(
                    f"bundle requests {requested} gas, "
                    f"SP cap is {self.max_bundle_gas}"
                )

        # Step 3: exclusive assignment of an idle core; a busy pool is
        # refused with a typed SchedulingError.
        core = self.scheduler.acquire(session_id, self.clock.now_us).core

        # Steps 4–8: run on the dedicated hardware set.  Exception
        # handling is this firmware's job: a fault mid-bundle (HEVM
        # crash, ORAM timeout, AEAD failure on a bucket) must never leak
        # the core — scrub it and return it to the pool, then let the
        # typed error propagate to the recovery layer.
        try:
            results, breakdowns, run_stats, struct_logs = core.run_bundle(
                list(bundle.transactions),
                chain,
                self._direct_backend,
                self._oram_backend,
                storage_via_oram=self.features.oram_storage,
                code_via_oram=self.features.oram_code,
                prefetch_enabled=self.features.prefetch,
                charge_fees=charge_fees,
                query_padding=self.features.query_padding,
                # Step traces feed the signed receipt; collecting them is
                # clock- and span-invisible, so receipts-off runs stay
                # byte-identical.
                struct_trace=self.features.receipts,
            )
            if self.faults is not None:
                # Byzantine seam: a lying device falsifies results (and
                # keeps its own trace self-consistent with the lie).
                results, struct_logs = self.faults.on_hevm_result(
                    results, struct_logs, self.clock.now_us
                )
                # Crash point B: power loss after execution finished but
                # before the trace was sealed — the client never sees a
                # result, yet the ORAM already absorbed the accesses.
                # Inside the ``try`` so the scrub below runs.
                self.faults.on_bundle_sealing(self, self.clock.now_us)
        except Exception:
            # Broad on purpose: whatever failed, the core is scrubbed and
            # returned; nothing is swallowed, the error re-raises as is.
            self.scheduler.release(core)
            raise

        report = TraceReport(
            bundle_id=bundle_id,
            traces=[trace_from_result(result) for result in results],
            aborted=run_stats.aborted,
            abort_reason=run_stats.abort_reason,
        )
        encoded = encode_trace_report(report)

        # Receipts plane: commit and sign every transaction's step trace.
        # RFC 6979 signing draws no randomness and the receipt travels
        # out of band (not channel-sealed), so nonce counters, clock,
        # spans, and metrics are untouched — byte-identity preserved.
        if self.features.receipts:
            unified = tuple(from_struct_logs(logs) for logs in struct_logs)
            receipt = make_receipt(bundle_id, unified, session.signing_key)
            if self.faults is not None:
                receipt = self.faults.on_receipt(receipt, self.clock.now_us)
            if receipt is not None:
                self._store_receipt(bundle_id, receipt, unified)

        # Step 9: seal and send the trace.
        if self.features.encryption:
            sealed_out: SealedMessage | bytes = session.channel.seal(encoded)
            self._charge_channel_crypto(len(encoded), "seal", session.channel)
        else:
            sealed_out = encoded

        # Step 10: release and scrub the core.
        self.scheduler.release(core)
        self.stats.bundles_executed += 1
        return sealed_out, breakdowns, run_stats

    # ------------------------------------------------------------------
    # Receipts plane (repro.hypervisor.receipts)
    # ------------------------------------------------------------------

    def _store_receipt(
        self,
        bundle_id: bytes,
        receipt: SignedReceipt,
        traces: tuple[UnifiedStepTrace, ...],
    ) -> None:
        self._receipts[bundle_id] = receipt
        self._receipt_traces[bundle_id] = traces
        while len(self._receipts) > self._receipt_cap:
            oldest = next(iter(self._receipts))
            del self._receipts[oldest]
            del self._receipt_traces[oldest]

    def receipt_for(self, bundle_id: bytes) -> SignedReceipt | None:
        """The signed receipt for a completed bundle (None if withheld,
        evicted, or receipts are disabled)."""
        return self._receipts.get(bundle_id)

    def receipt_opening(
        self, bundle_id: bytes, tx_index: int, step_index: int
    ) -> tuple[StepTraceRecord, MerkleProof]:
        """Open one committed step for an auditor.

        Served from the *device's* retained trace — a tampering device
        answers consistently with the root it signed, so openings alone
        never expose it; the auditor's comparison against node ground
        truth is what does.
        """
        traces = self._receipt_traces.get(bundle_id)
        if traces is None:
            raise ReceiptMissingError(bundle_id)
        # Auditor-chosen indices: a negative one must not wrap around to
        # the last transaction, an overlong one must not be IndexError.
        if not (0 <= tx_index < len(traces)
                and 0 <= step_index < traces[tx_index].instructions):
            raise ReceiptIndexError(
                f"bundle {bundle_id.hex()[:16]} has no step {step_index} "
                f"of transaction {tx_index} to open"
            )
        trace = traces[tx_index]
        return trace.records[step_index], trace.open_step(step_index)

    def _charge_channel_crypto(
        self, size_bytes: int, direction: str, channel: SecureChannel
    ) -> None:
        # AEAD and signature are charged as separate advances so each
        # gets its own span on its own attribution layer; the split is
        # unconditional, keeping traced and untraced runs identical.
        tracer = tracer_for(self.clock)
        seal_us = self.cost.channel_seal_us(size_bytes)
        span = tracer.record(
            f"channel.{direction}", "encryption", seal_us, bytes=size_bytes
        )
        if tracer.enabled:
            opened = direction == "open"
            span.set(
                session_messages=(
                    channel.stats.messages_opened
                    if opened
                    else channel.stats.messages_sealed
                ),
                session_wire_bytes=(
                    channel.stats.bytes_opened if opened else channel.stats.bytes_sealed
                ),
            )
        self.clock.advance_us(seal_us)
        dt = seal_us
        if self.features.signatures:
            # One verify on an opened message, one sign on a sealed one.
            if direction == "open":
                name, ecdsa_us = "channel.verify", self.cost.ecdsa_verify_us
            else:
                name, ecdsa_us = "channel.sign", self.cost.ecdsa_sign_us
            tracer.record(name, "signature", ecdsa_us)
            self.clock.advance_us(ecdsa_us)
            dt += ecdsa_us
        self.stats.crypto_time_us += dt

    # ------------------------------------------------------------------
    # Step 11: block synchronization
    # ------------------------------------------------------------------

    def sync_block(self, state_root: bytes, updates) -> int:
        self._require_alive()
        if self.synchronizer is None:
            return 0
        with tracer_for(self.clock).span("sync.block", "sync") as span:
            applied = self.synchronizer.apply_block(state_root, updates)
            span.set(updates=applied)
        self.last_verified_root = state_root
        if self.recovery is not None:
            self.recovery.on_sync_root(state_root)
        return applied
