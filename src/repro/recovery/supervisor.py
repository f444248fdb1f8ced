"""Restart orchestration: from typed crash to re-joined deployment.

:class:`HypervisorSupervisor` is the ``supervisor`` policy of
:class:`~repro.serving.gateway.ServiceExecutor`: it turns the two
non-retryable recovery-plane errors into retryable situations by
*repairing the world first*:

* :class:`~repro.hypervisor.hypervisor.HypervisorCrashError` →
  :meth:`restart`: charge the cold-boot cost, recover trusted state from
  the durable store (checkpoint + journal replay), rebuild the ORAM
  client, cold-restart the firmware at the next generation, re-arm the
  fault plane, and invoke every tenant's re-join callback so attestation
  + DHKE re-establish live sessions — each phase a telemetry span on the
  ``recovery`` layer.
* :class:`~repro.oram.client.RollbackDetectedError` → :meth:`resync`:
  the SP served a stale tree; discard it and rebuild from verified chain
  state (the paper's block-sync path), keeping the nonce counter
  monotone.

In-flight work is *re-admitted* when its payload re-resolves a live
session (:class:`~repro.faults.policy.FailoverBundle` reads the
tenant's session mapping at seal time, and re-join replaces the entry
in place), and terminates as a typed FAILED otherwise — either way
under the gateway's existing deadline/slot accounting, never silently.
"""

from __future__ import annotations

from repro.hypervisor.hypervisor import HypervisorCrashError, UnknownSessionError
from repro.oram.client import RollbackDetectedError
from repro.recovery.manager import RecoveryManager
from repro.recovery.state import RecoveryIntegrityError
from repro.recovery.store import DurableStore
from repro.telemetry.tracer import tracer_for


class HypervisorSupervisor:
    """Repairs the deployment when the executor hits a dead Hypervisor."""

    def __init__(
        self,
        service,
        manager: RecoveryManager,
        store: DurableStore,
        injector=None,
        metrics=None,
    ) -> None:
        self.service = service
        self.manager = manager
        self.store = store
        self._injector = injector
        self._metrics = metrics
        # Tenant-side re-join hooks: callables ``(device_index, device)``
        # that re-run attestation + DHKE and replace the tenant's entry
        # in its session mapping.  Registered per tenant at setup.
        self.rejoin_callbacks: list = []
        self.restarts = 0
        self.resyncs = 0

    # ------------------------------------------------------------------
    # Executor seam
    # ------------------------------------------------------------------

    def intervene(self, error: Exception, device_index: int) -> bool:
        """Repair after ``error``; True iff a retry is now worthwhile."""
        if isinstance(error, HypervisorCrashError):
            self.restart(device_index)
            return True
        if isinstance(error, RollbackDetectedError):
            self.resync(device_index)
            return True
        if isinstance(error, UnknownSessionError):
            # Stale session id after a restart this supervisor performed:
            # the retry re-seals, and a FailoverBundle over the tenant's
            # live session mapping picks up the re-joined session.  Without a
            # prior restart it is a routing bug — propagate.
            return self.restarts > 0
        return False

    # ------------------------------------------------------------------
    # Cold restart
    # ------------------------------------------------------------------

    def restart(self, device_index: int) -> None:
        """The paper-faithful restart protocol, on virtual time.

        boot (secure boot + HEVM reset) → restore (unseal checkpoint,
        replay journal, rebuild the ORAM client) → rejoin (re-attest
        every tenant).  Each phase is charged through the cost model and
        recorded as a ``recovery``-layer span.
        """
        service = self.service
        device = service.devices[device_index]
        clock = service.clock
        cost = service.cost
        tracer = tracer_for(clock)

        tracer.record(
            "recovery.boot", "recovery", cost.hypervisor_reboot_us,
            device=device_index, generation=device.restarts + 1,
        )
        clock.advance_us(cost.hypervisor_reboot_us)

        # The durable store is sealed under (and NVRAM-pinned by) the
        # deployment's *anchor* device — the one the manager was built
        # on — so recovery always verifies against that anchor, whatever
        # device's hypervisor actually died.
        anchor = self.manager.device
        manager, state, replayed = RecoveryManager.recover(
            anchor,
            self.store,
            checkpoint_interval=self.manager.checkpoint_interval,
        )
        restore_us = (
            cost.checkpoint_restore_us
            + replayed * cost.journal_replay_record_us
        )
        tracer.record(
            "recovery.restore", "recovery", restore_us,
            epoch=manager.epoch, replayed_records=replayed,
        )
        clock.advance_us(restore_us)

        # Carry the deployment-cumulative observability counters across
        # generations.
        manager.checkpoints_written += self.manager.checkpoints_written
        manager.records_written += self.manager.records_written
        client = manager.rebuild_client(
            state,
            service.oram_server,
            generation=device.restarts + 1,
            response_budget_us=anchor.config.oram_response_budget_us,
        )
        device.restart_hypervisor(client, oram_key=state.oram_key)
        service.install_oram_client(client)
        manager.reattach(service, client)
        self.manager = manager
        if self._injector is not None:
            # Fresh hypervisor/cores need re-arming; the shared client's
            # server re-wraps (arm_device skips double-wrapping).
            self._injector.arm_device(device)
        service.stats.hypervisor_restarts += 1
        self.restarts += 1
        if self._metrics is not None:
            self._metrics.counter("recovery.restarts").inc()

        with tracer.span(
            "recovery.rejoin", "recovery", device=device_index
        ) as span:
            for callback in self.rejoin_callbacks:
                callback(device_index, device)
            span.set(sessions=len(self.rejoin_callbacks))

    # ------------------------------------------------------------------
    # Rollback re-sync
    # ------------------------------------------------------------------

    def resync(self, device_index: int = 0) -> None:
        """Recovery policy for a detected SP tree rollback.

        The stale tree is worthless: discard it wholesale, keep the
        nonce counter (monotonicity must span the blobs the SP has
        already seen), and rebuild from the verified synced state —
        which the last pinned sync root attests.  Ends with a fresh
        checkpoint so the stale journal epoch can never resurface.
        """
        service = self.service
        backend = service.devices[device_index].oram_backend
        if backend is None:
            raise RecoveryIntegrityError(
                f"device {device_index} has no oblivious backend to re-sync"
            )
        client = backend.client  # the deployment's one shared client
        with tracer_for(service.clock).span(
            "recovery.resync", "recovery", device=device_index
        ) as span:
            client.server.reset_tree()
            client.forget_tree_state()
            pages = backend.sync_world(service._synced_state.accounts)
            span.set(pages=pages)
        self.manager.checkpoint()
        self.resyncs += 1
        if self._metrics is not None:
            self._metrics.counter("recovery.resyncs").inc()


__all__ = ["HypervisorSupervisor"]
