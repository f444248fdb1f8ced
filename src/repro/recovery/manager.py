"""The recovery manager: checkpoints, journaling, and cold recovery.

One :class:`RecoveryManager` guards one deployment.  Armed (via
:meth:`attach`) it sits on the inert recovery seams the substrates
expose — ``PathOramClient.recovery`` and ``Hypervisor.recovery`` — and
mirrors every trusted-state change into sealed records in an untrusted
:class:`~repro.recovery.store.DurableStore`:

* a **checkpoint** per epoch: the full
  :class:`~repro.recovery.state.TrustedState`, sealed;
* a **write-ahead nonce lease** before the client touches the wire;
* one **journal record** per completed ORAM access / session entering
  or leaving a device / sync root, sealed with the epoch+sequence bound
  into nonce and AAD.

Everything the armed hooks do is host-process work: no DRBG draws, no
clock advances, no tracer records — which is why a zero-crash run with
checkpointing armed is byte-identical (traces, metrics, wire bytes) to
one without, the bench's identity criterion.

Freshness of the *store itself* is pinned by the device's hardware
monotonic counter (:class:`~repro.hardware.csu.MonotonicCounter`): every
durable write advances it to the composite ``(epoch << 40) | seq``, and
:meth:`recover` refuses a store whose newest record disagrees — the SP
rolling back checkpoint + journal together is caught *at boot*, before
any stale state is trusted.  An SP rolling back only the ORAM tree is
caught later, at first access, by the restored version pins
(:class:`~repro.oram.client.RollbackDetectedError`).
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

from repro.crypto.kdf import Drbg, hkdf_sha256
from repro.crypto.suite import AuthenticationError, CounterNonceSealer
from repro.oram.client import PathOramClient
from repro.oram.store import build_client
from repro.recovery import journal
from repro.recovery.state import (
    RecoveryIntegrityError,
    SessionRecord,
    TrustedState,
)
from repro.recovery.store import DurableStore

# Sequence numbers get 40 bits per epoch; the composite (epoch << 40 | seq)
# is the sealer nonce, the NVRAM pin, and the total order over records.
_SEQ_BITS = 40
# NVRAM is leased ahead in chunks of this many sequence numbers.
_LEASE_CHUNK = 256


class RecoveryManager:
    """Journals one deployment's trusted state into a durable store."""

    def __init__(
        self,
        device,
        store: DurableStore,
        checkpoint_interval: int = 8,
        oram_key: bytes = b"",
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self._device = device
        self.store = store
        self.checkpoint_interval = checkpoint_interval
        master = device.csu.derive_sealing_key(b"recovery")
        self._journal_sealer = CounterNonceSealer(
            hkdf_sha256(master, info=b"journal")
        )
        self._checkpoint_sealer = CounterNonceSealer(
            hkdf_sha256(master, info=b"checkpoint")
        )
        self.epoch = 0
        self.seq = 0
        self._accesses_since_checkpoint = 0
        self._leased_until = 0
        self._sessions: dict[str, SessionRecord] = {}
        self._sync_root: bytes | None = None
        self._client: PathOramClient | None = None
        self._oram_key = oram_key
        # Observability (host-side counters, never simulated time).
        self.checkpoints_written = 0
        self.records_written = 0

    @property
    def device(self):
        """The anchor device whose CSU keys and NVRAM pin this store."""
        return self._device

    # ------------------------------------------------------------------
    # Store layout
    # ------------------------------------------------------------------

    @staticmethod
    def _checkpoint_key(epoch: int) -> str:
        return f"checkpoint/{epoch:012d}"

    @staticmethod
    def _journal_key(epoch: int, seq: int) -> str:
        return f"journal/{epoch:012d}/{seq:012d}"

    @staticmethod
    def _composite(epoch: int, seq: int) -> int:
        if not 0 <= seq < (1 << _SEQ_BITS):
            # A wider sequence would alias into the epoch bits and could
            # impersonate a newer record against the NVRAM pin.
            raise RecoveryIntegrityError(
                f"sequence {seq} does not fit {_SEQ_BITS} bits"
            )
        return (epoch << _SEQ_BITS) | seq

    @staticmethod
    def _key_counter(key: str) -> int:
        """The trailing counter of an SP-controlled store key name."""
        digits = key.rsplit("/", 1)[-1]
        if not (digits.isascii() and digits.isdigit()):
            raise RecoveryIntegrityError(f"malformed durable-store key {key!r}")
        return int(digits)

    @staticmethod
    def _checkpoint_aad(epoch: int) -> bytes:
        return b"checkpoint|" + epoch.to_bytes(8, "big")

    @staticmethod
    def _journal_aad(epoch: int, seq: int) -> bytes:
        return b"journal|" + epoch.to_bytes(8, "big") + seq.to_bytes(8, "big")

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def attach(self, service) -> None:
        """Arm the seams fleet-wide and write the initial checkpoint."""
        client = service.shared_oram_client
        if client is None:
            raise ValueError("recovery requires an ORAM-enabled deployment")
        if any(device.hypervisor.session_count for device in service.devices):
            # One already inside would never get its re-join record.
            raise ValueError("arm recovery before the first session is established")
        self._oram_key = service.devices[0].hypervisor.oram_key
        self.reattach(service, client)
        self.checkpoint()

    def reattach(self, service, client: PathOramClient) -> None:
        """Re-arm the seams after a restart (same epoch, same journal)."""
        self._client = client
        client.recovery = self
        for index, device in enumerate(service.devices):
            # Session records carry the index of the device they are on.
            device.hypervisor.recovery = SimpleNamespace(
                on_session=partial(self.note_session, device_index=index),
                on_session_end=self.note_session_end,
                on_sync_root=self.note_sync_root,
            )

    # ------------------------------------------------------------------
    # Journal sinks (called from the armed seams)
    # ------------------------------------------------------------------

    def _append(self, kind: str, payload: dict) -> None:
        self.seq += 1
        composite = self._composite(self.epoch, self.seq)
        sealed = self._journal_sealer.seal(
            composite,
            journal.encode_record(kind, payload),
            aad=self._journal_aad(self.epoch, self.seq),
        )
        self.store.put(self._journal_key(self.epoch, self.seq), sealed)
        self._device.nvram.advance_to(composite)
        self.records_written += 1

    def reserve_nonces(self, nonce_counter: int, count: int) -> None:
        """Write-ahead lease: journal *before* the nonces hit the wire."""
        needed = nonce_counter + count
        if needed <= self._leased_until:
            return
        lease = needed + _LEASE_CHUNK
        self._append(journal.LEASE, journal.lease_payload(lease))
        self._leased_until = lease

    def record_access(
        self,
        stash: dict[bytes, bytes | None],
        positions: dict[bytes, int | None],
        versions: dict[int, int],
        nonce_counter: int,
    ) -> None:
        """One completed ORAM access's absolute trusted-state delta."""
        self._append(
            journal.ACCESS,
            journal.access_payload(stash, positions, versions, nonce_counter),
        )
        self._accesses_since_checkpoint += 1
        if self._accesses_since_checkpoint >= self.checkpoint_interval:
            self.checkpoint()

    def note_session(self, session, device_index: int) -> None:
        record = SessionRecord(
            session_id=session.session_id,
            user_public=session.user_public.to_bytes(),
            device_index=device_index,
            established_at_us=session.established_at_us,
        )
        self._sessions[record.session_id.hex()] = record
        self._append(journal.SESSION, journal.session_payload(record))

    def note_session_end(self, session_id: bytes) -> None:
        """Suspend or close: the record leaves every later checkpoint."""
        self._sessions.pop(session_id.hex(), None)
        self._append(
            journal.SESSION_END, journal.session_end_payload(session_id)
        )

    def note_sync_root(self, state_root: bytes) -> None:
        self._sync_root = state_root
        self._append(journal.ROOT, journal.root_payload(state_root))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def current_state(self) -> TrustedState:
        if self._client is None:
            raise ValueError("no ORAM client armed: attach the manager first")
        snapshot = self._client.snapshot_trusted_state()
        return TrustedState(
            stash=snapshot["stash"],
            positions=snapshot["positions"],
            node_versions=snapshot["node_versions"],
            nonce_counter=snapshot["nonce_counter"],
            leased_until=max(self._leased_until, snapshot["nonce_counter"]),
            oram_key=self._oram_key,
            block_size=self._client.block_size,
            sessions=dict(self._sessions),
            sync_root=self._sync_root,
        )

    def checkpoint(self) -> int:
        """Seal the full trusted state as a new epoch; prune the old one.

        Pure host-process work (no clocks, no DRBGs, no tracer): the
        hardware story is a background DMA engine draining to disk, so
        arming checkpoints must not perturb the simulated run.
        """
        state = self.current_state()
        old_epoch = self.epoch
        self.epoch += 1
        self.seq = 0
        self._accesses_since_checkpoint = 0
        self._leased_until = state.leased_until
        composite = self._composite(self.epoch, 0)
        sealed = self._checkpoint_sealer.seal(
            composite, state.encode(), aad=self._checkpoint_aad(self.epoch)
        )
        self.store.put(self._checkpoint_key(self.epoch), sealed)
        self._device.nvram.advance_to(composite)
        self.checkpoints_written += 1
        # The previous epoch is now fully superseded: drop its journal
        # and checkpoint (the NVRAM pin makes them unusable anyway).
        for key in self.store.keys(f"journal/{old_epoch:012d}/"):
            self.store.delete(key)
        self.store.delete(self._checkpoint_key(old_epoch))
        return self.epoch

    # ------------------------------------------------------------------
    # Recovery (cold restart)
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        device,
        store: DurableStore,
        checkpoint_interval: int = 8,
    ) -> tuple["RecoveryManager", TrustedState, int]:
        """Verify the store, unseal the checkpoint, replay the journal.

        Returns ``(manager, recovered_state, replayed_record_count)``.
        Raises :class:`RecoveryIntegrityError` on any freshness or
        integrity violation — a refused boot beats a rolled-back one.
        """
        manager = cls(device, store, checkpoint_interval)
        checkpoints = store.keys("checkpoint/")
        if not checkpoints:
            raise RecoveryIntegrityError("durable store holds no checkpoint")
        epoch = cls._key_counter(checkpoints[-1])
        journal_keys = store.keys(f"journal/{epoch:012d}/")
        last_seq = cls._key_counter(journal_keys[-1]) if journal_keys else 0
        newest = cls._composite(epoch, last_seq)
        pinned = device.nvram.value
        if newest != pinned:
            raise RecoveryIntegrityError(
                f"store rollback detected: newest durable record is "
                f"epoch {epoch} seq {last_seq} (composite {newest}), but the "
                f"device monotonic counter pins {pinned}"
            )
        blob = store.get(cls._checkpoint_key(epoch))
        if blob is None:
            # The key that named the epoch was not in canonical form.
            raise RecoveryIntegrityError(
                f"checkpoint epoch {epoch} is missing from the store"
            )
        # Both unseals below catch all a sealer can raise: the composite
        # was just matched against the device's own monotonic counter, so
        # it fits the 96-bit nonce and ``to_bytes`` cannot overflow.
        try:
            plain = manager._checkpoint_sealer.open(
                cls._composite(epoch, 0), blob, aad=cls._checkpoint_aad(epoch)
            )
        except (AuthenticationError, ValueError) as error:
            raise RecoveryIntegrityError(
                f"checkpoint epoch {epoch} failed to unseal: {error}"
            ) from error
        state = TrustedState.decode(plain)
        records: list[tuple[str, dict]] = []
        for seq in range(1, last_seq + 1):
            blob = store.get(cls._journal_key(epoch, seq))
            if blob is None:
                raise RecoveryIntegrityError(
                    f"journal gap: epoch {epoch} seq {seq} missing"
                )
            try:
                plain = manager._journal_sealer.open(
                    cls._composite(epoch, seq),
                    blob,
                    aad=cls._journal_aad(epoch, seq),
                )
            except (AuthenticationError, ValueError) as error:
                raise RecoveryIntegrityError(
                    f"journal record epoch {epoch} seq {seq} failed to "
                    f"unseal: {error}"
                ) from error
            records.append(journal.decode_record(plain))
        journal.replay(state, records)
        manager.epoch = epoch
        manager.seq = last_seq
        manager._leased_until = state.leased_until
        manager._sessions = dict(state.sessions)
        manager._sync_root = state.sync_root
        manager._oram_key = state.oram_key
        return manager, state, len(records)

    def rebuild_client(
        self,
        state: TrustedState,
        server,
        generation: int,
        response_budget_us: float | None = None,
    ) -> PathOramClient:
        """Build the successor ORAM client from a recovered state.

        Its RNG is salted by ``generation`` so it never
        replays the eviction-randomness stream its predecessor already
        consumed against the same adversary-visible tree.
        """
        client = build_client(
            server,
            state.oram_key,
            block_size=state.block_size,
            rng=Drbg(
                self._device.csu.derive_sealing_key(
                    b"oram-rng-gen%d" % generation
                )
            ),
            response_budget_us=response_budget_us,
        )
        client.restore_trusted_state(
            {
                "stash": state.stash,
                "positions": state.positions,
                "node_versions": state.node_versions,
                "nonce_counter": state.nonce_counter,
            }
        )
        return client


__all__ = ["RecoveryManager"]
