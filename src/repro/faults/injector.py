"""The fault injector: arms a :class:`FaultPlan` onto live components.

The injector is the glue between the plan (the seeded decision oracle)
and the substrate seams the components expose (``hypervisor.faults``,
``core.fault_hook``, ``synchronizer.faults``, and a wrapping
:class:`FaultyOramServer` in front of the ORAM client).  Each
hook asks the plan whether its kind fires *at this decision point*; when
it does, the injector perturbs the data exactly the way the modeled
adversary/failure would — flip ciphertext bits, lose a DMA message,
stall the storage server, kill a core — and logs the injection.

Injection must be undetectable when nothing fires: hooks return their
inputs unchanged, draw no randomness from component RNGs, advance no
clocks, and touch no metrics.  A run with an armed all-zero-rate plan is
therefore bit-for-bit identical to an unarmed run — the chaos bench's
baseline criterion.
"""

from __future__ import annotations

from dataclasses import replace

from repro.crypto.ecc import Signature
from repro.faults.errors import DmaDropError, HevmCrashError
from repro.faults.plan import FaultKind, FaultPlan
from repro.hypervisor.channel import ChannelError, SealedMessage
from repro.oram.server import OramServer, OramServerStall


def _flip_low_bit(data: bytes, offset: int = -1) -> bytes:
    """Return ``data`` with one bit flipped (default: in the last byte,
    which for AEAD blobs sits inside the authentication tag)."""
    index = offset if offset >= 0 else len(data) + offset
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


class FaultyOramServer:
    """A faulty frontend over the real :class:`OramServer`.

    Models the two ways the untrusted storage tier misbehaves without
    breaking the ORAM protocol itself: answering *late* (``oram-stall``,
    a typed :class:`OramServerStall` carrying the virtual delay) and
    answering *wrong* (``oram-tag-corrupt``, one bit flipped in one
    returned ciphertext, caught by the client's AEAD check).  Corruption
    happens on the returned copy only — the stored buckets stay intact,
    so a retried read succeeds, exactly like a transient DMA/bus error.

    Everything else (geometry, writes, stats, observers) delegates to
    the wrapped server untouched.
    """

    def __init__(self, inner: OramServer, injector: "FaultInjector") -> None:
        self._inner = inner
        self._injector = injector

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def read_path(self, leaf: int, sim_time_us: float = 0.0):
        plan = self._injector.plan
        if plan.decide(FaultKind.ORAM_STALL):
            stall_us = plan.rule(FaultKind.ORAM_STALL).stall_us
            self._injector._fired(
                FaultKind.ORAM_STALL,
                "oram.server.read_path",
                sim_time_us,
                f"stalled {stall_us:.0f} µs on leaf {leaf}",
            )
            raise OramServerStall(stall_us)
        buckets = self._inner.read_path(leaf, sim_time_us)
        if plan.decide(FaultKind.ORAM_TAG_CORRUPT):
            for node in sorted(buckets):
                if buckets[node]:
                    buckets[node] = _flip_low_bit(buckets[node])
                    self._injector._fired(
                        FaultKind.ORAM_TAG_CORRUPT,
                        "oram.server.read_path",
                        sim_time_us,
                        f"corrupted the bucket of node {node}",
                    )
                    break
        return buckets


class FaultInjector:
    """Arms a plan's faults onto a service/device and implements the hooks."""

    def __init__(self, plan: FaultPlan, metrics=None) -> None:
        self.plan = plan
        self._metrics = metrics

    # -- bookkeeping (only ever called when a fault actually fires) -----

    def _fired(self, kind: str, site: str, now_us: float, detail: str = "") -> None:
        self.plan.record(kind, site, now_us, detail)
        if self._metrics is not None:
            self._metrics.counter("faults.injected").inc()
            self._metrics.counter("faults.injected", kind=kind).inc()

    # -- arming ---------------------------------------------------------

    def arm_service(self, service) -> "FaultInjector":
        """Arm every device of a :class:`~repro.core.service.HarDTAPEService`.

        The shared ORAM server is wrapped once; every device's client is
        repointed at the faulty frontend.
        """
        faulty_server = None
        if service.oram_server is not None:
            faulty_server = FaultyOramServer(service.oram_server, self)
        for device in service.devices:
            self.arm_device(device, faulty_server=faulty_server)
        return self

    def arm_device(self, device, faulty_server: FaultyOramServer | None = None):
        """Arm one :class:`~repro.core.device.HarDTAPEDevice`."""
        device.hypervisor.faults = self
        for core in device.cores:
            core.fault_hook = self.on_hevm_tx
        if device.hypervisor.synchronizer is not None:
            device.hypervisor.synchronizer.faults = self
        if device.oram_backend is not None:
            client = device.oram_backend.client
            if isinstance(client.server, FaultyOramServer):
                # Already armed (e.g. re-arming after a Hypervisor
                # restart re-installed the shared client): wrapping
                # twice would double every decision draw.
                pass
            else:
                if faulty_server is None:
                    faulty_server = FaultyOramServer(client.server, self)
                client.server = faulty_server
        return self

    # -- channel (authenticated DMA) hooks ------------------------------

    def on_channel_receive(
        self, message: SealedMessage, now_us: float
    ) -> SealedMessage:
        """Called on every inbound sealed bundle before ``channel.open``."""
        if self.plan.decide(FaultKind.DMA_DROP):
            self._fired(
                FaultKind.DMA_DROP,
                "hypervisor.channel.receive",
                now_us,
                f"dropped message nonce={int.from_bytes(message.nonce, 'big')}",
            )
            raise DmaDropError("authenticated-DMA message lost in transit")
        if self.plan.decide(FaultKind.DMA_CORRUPT):
            self._fired(
                FaultKind.DMA_CORRUPT,
                "hypervisor.channel.receive",
                now_us,
                "flipped one ciphertext bit",
            )
            return replace(message, ciphertext=_flip_low_bit(message.ciphertext))
        return message

    def after_channel_open(
        self, channel, message: SealedMessage, now_us: float
    ) -> None:
        """Called after a successful ``channel.open`` of ``message``.

        A duplicated DMA delivery re-presents the very same sealed
        message; the channel's counter-nonce replay check must reject
        it.  The rejection is the *expected* recovery — it is recorded
        as absorbed, and a failure to reject would be a protocol bug
        worth crashing the run over.
        """
        if self.plan.decide(FaultKind.DMA_DUPLICATE):
            try:
                channel.open(message)
            except ChannelError:
                self._fired(
                    FaultKind.DMA_DUPLICATE,
                    "hypervisor.channel.receive",
                    now_us,
                    "duplicate delivery rejected by replay protection",
                )
                if self._metrics is not None:
                    self._metrics.counter(
                        "faults.absorbed", kind=FaultKind.DMA_DUPLICATE
                    ).inc()
            else:  # a replay-protection hole: crash the run
                raise AssertionError(
                    "duplicated channel message was accepted twice"
                )

    # -- HEVM hook ------------------------------------------------------

    def on_hevm_tx(self, core, txs_completed: int) -> None:
        """Called before each transaction of a bundle starts on ``core``."""
        now_us = core.clock.now_us
        if self.plan.decide(FaultKind.HEVM_CRASH):
            self._fired(
                FaultKind.HEVM_CRASH,
                f"hardware.hevm.core{core.core_id}",
                now_us,
                f"crashed after {txs_completed} tx(s)",
            )
            raise HevmCrashError(core.core_id, txs_completed)

    # -- Hypervisor crash hooks -----------------------------------------

    def _maybe_crash(self, hypervisor, phase: str, now_us: float) -> None:
        if self.plan.decide(FaultKind.HYPERVISOR_CRASH):
            error = hypervisor.crash(phase)
            self._fired(
                FaultKind.HYPERVISOR_CRASH,
                f"hypervisor.{phase}",
                now_us,
                f"generation {hypervisor.generation} died",
            )
            raise error

    def on_bundle_admission(self, hypervisor, now_us: float) -> None:
        """Crash point A: right after bundle admission, pre-assignment."""
        self._maybe_crash(hypervisor, "bundle.admission", now_us)

    def on_bundle_sealing(self, hypervisor, now_us: float) -> None:
        """Crash point B: execution done, trace not yet sealed/sent."""
        self._maybe_crash(hypervisor, "bundle.sealing", now_us)

    # -- attestation hook -----------------------------------------------

    def on_attestation(self, report, now_us: float):
        """Called on every outbound attestation report."""
        if self.plan.decide(FaultKind.ATTESTATION_FAIL):
            self._fired(
                FaultKind.ATTESTATION_FAIL,
                "hypervisor.attestation",
                now_us,
                "tampered report signature",
            )
            bad = Signature(report.signature.r ^ 1, report.signature.s)
            return replace(report, signature=bad)
        return report

    # -- block-sync hook ------------------------------------------------

    def on_sync_root(self, state_root: bytes, now_us: float) -> bytes:
        """Called with the state root of every block about to be applied."""
        if self.plan.decide(FaultKind.SYNC_STALE_HEADER):
            self._fired(
                FaultKind.SYNC_STALE_HEADER,
                "hypervisor.sync.apply_block",
                now_us,
                "served a forked/stale state root",
            )
            return _flip_low_bit(state_root, offset=0)
        return state_root

    # -- Byzantine hooks: the device lies instead of failing ------------

    def on_hevm_result(self, results, struct_logs, now_us: float):
        """Called with a bundle's execution results before sealing.

        A firing ``hevm-result-tamper`` falsifies the last transaction's
        gas accounting *and* the matching step-trace entry: the cheating
        device stays self-consistent (it signs a receipt over the trace
        it reports), so only comparison against node ground truth — the
        receipt audit — can expose it.
        """
        if self.plan.decide(FaultKind.HEVM_RESULT_TAMPER) and results:
            results[-1].gas_used ^= 0x1
            if struct_logs and struct_logs[-1]:
                struct_logs[-1][-1].gas ^= 0x1
            self._fired(
                FaultKind.HEVM_RESULT_TAMPER,
                "hypervisor.bundle.result",
                now_us,
                "falsified gas accounting of the last transaction",
            )
        return results, struct_logs

    def on_receipt(self, receipt, now_us: float):
        """Called with every signed receipt before it is retained.

        ``receipt-omit`` withholds it entirely (returns ``None``);
        ``receipt-forge`` perturbs the signature — modeling a device
        whose signing key does not match its attested session identity.
        """
        if self.plan.decide(FaultKind.RECEIPT_OMIT):
            self._fired(
                FaultKind.RECEIPT_OMIT,
                "hypervisor.bundle.receipt",
                now_us,
                "withheld the bundle receipt",
            )
            return None
        if self.plan.decide(FaultKind.RECEIPT_FORGE):
            self._fired(
                FaultKind.RECEIPT_FORGE,
                "hypervisor.bundle.receipt",
                now_us,
                "forged the receipt signature",
            )
            bad = Signature(receipt.signature.r ^ 1, receipt.signature.s)
            return replace(receipt, signature=bad)
        return receipt

    def on_sync_equivocate(self, now_us: float) -> bool:
        """Called once per block at the top of ``sync_new_blocks``.

        A firing ``sync-equivocate`` makes the device *withhold* the
        block from its ORAM: the service's synced height advances but
        the device keeps pre-executing on stale world state — an
        internally consistent lie that only ground-truth receipt audits
        (or diverging world digests) can expose.
        """
        if self.plan.decide(FaultKind.SYNC_EQUIVOCATE):
            self._fired(
                FaultKind.SYNC_EQUIVOCATE,
                "core.service.sync_new_blocks",
                now_us,
                "withheld a block from the ORAM sync",
            )
            return True
        return False


__all__ = ["FaultInjector", "FaultyOramServer"]
