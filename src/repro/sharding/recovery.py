"""Per-shard crash recovery: one journal, one NVRAM pin, one blast radius.

Each shard gets its own :class:`~repro.recovery.manager.RecoveryManager`
over its own :class:`~repro.recovery.store.DurableStore`, anchored to a
shard-scoped sealing identity and a shard-private monotonic counter.
A crash therefore recovers from that shard's checkpoint + journal alone:
the other N-1 shards keep serving, their stores untouched, their
counters unmoved — the single-shard blast radius the fleet design
promises.

While a shard is down, accesses routed to it raise the typed
:class:`~repro.sharding.errors.ShardUnavailableError` (carrying the
shard id) rather than any whole-fleet failure; the regression test for
the old behaviour — a one-shard crash surfacing as a generic
``BundleFailedError`` — lives in ``tests/integration``.

Only path-backed shards journal per access (the stash/position-map
delta is the thing being journaled); arming a pyramid shard raises the
typed :class:`~repro.sharding.errors.UnsupportedShardBackendError`.
"""

from __future__ import annotations

from repro.crypto.kdf import hkdf_sha256
from repro.hardware.csu import MonotonicCounter
from repro.recovery.manager import RecoveryManager
from repro.recovery.store import DurableStore
from repro.sharding.backend import ShardedObliviousStateBackend
from repro.sharding.errors import UnsupportedShardBackendError


class SoftwareSealingAuthority:
    """Fleet-level sealing-key root for deployments without one CSU.

    A sharded fleet spans machines, so its recovery keys hang off the
    fleet master secret (HKDF) instead of a single device's fused CSU.
    Anything exposing ``derive_sealing_key`` works here — pass a real
    :class:`~repro.hardware.csu.ConfigurationSecurityUnit` to anchor a
    co-located fleet in hardware instead.
    """

    def __init__(self, master_key: bytes) -> None:
        self._master = master_key

    def derive_sealing_key(self, label: bytes) -> bytes:
        return hkdf_sha256(self._master, salt=b"fleet-sealing-v1", info=label)


class _ShardScopedCsu:
    """Namespaces one shard's sealing keys under the fleet authority."""

    def __init__(self, authority, shard_id: int) -> None:
        self._authority = authority
        self._prefix = b"shard-%04d/" % shard_id

    def derive_sealing_key(self, label: bytes) -> bytes:
        return self._authority.derive_sealing_key(self._prefix + label)


class ShardAnchor:
    """The per-shard 'device' a :class:`RecoveryManager` anchors to.

    Sealing keys come from the shard-scoped CSU view; the monotonic
    counter is shard-private, so one shard's checkpoint cadence never
    advances (or constrains) another's rollback pin.
    """

    def __init__(self, csu) -> None:
        self.csu = csu
        self.nvram = MonotonicCounter()


class ShardRecoveryCoordinator:
    """Arms, crashes, and recovers shards one at a time."""

    def __init__(
        self,
        backend: ShardedObliviousStateBackend,
        sealing_authority,
        checkpoint_interval: int = 8,
        lease_chunk: int = 64,
    ) -> None:
        self._backend = backend
        self._fleet = backend.fleet
        self._authority = sealing_authority
        self._checkpoint_interval = checkpoint_interval
        self._lease_chunk = lease_chunk
        self._anchors: dict[int, ShardAnchor] = {}
        self._stores: dict[int, DurableStore] = {}
        self._managers: dict[int, RecoveryManager] = {}
        self._generations: dict[int, int] = {}

    # -- arming --------------------------------------------------------

    def arm(self) -> None:
        """Checkpoint every shard and arm its per-access journal."""
        for shard_id, shard in sorted(self._fleet.shards.items()):
            if shard.backend != "path":
                raise UnsupportedShardBackendError(
                    shard_id, shard.backend, "per-access journaling"
                )
            anchor = ShardAnchor(_ShardScopedCsu(self._authority, shard_id))
            store = DurableStore()
            manager = RecoveryManager(
                anchor,
                store,
                checkpoint_interval=self._checkpoint_interval,
                lease_chunk=self._lease_chunk,
                oram_key=shard.key,
            )
            manager.attach_client(shard.client)
            manager.checkpoint()
            self._anchors[shard_id] = anchor
            self._stores[shard_id] = store
            self._managers[shard_id] = manager

    def manager(self, shard_id: int) -> RecoveryManager:
        return self._managers[shard_id]

    def store(self, shard_id: int) -> DurableStore:
        return self._stores[shard_id]

    def armed_shards(self) -> tuple[int, ...]:
        return tuple(sorted(self._managers))

    # -- crash / recover -----------------------------------------------

    def crash_shard(self, shard_id: int, reason: str = "shard firmware crash") -> None:
        """Kill one shard's trusted client; the fleet routes around it."""
        if shard_id not in self._managers:
            raise ValueError(f"shard {shard_id} is not armed for recovery")
        shard = self._fleet.shards[shard_id]
        # The in-memory client dies with the shard firmware; everything
        # it knew survives only as sealed records in the durable store.
        shard.client.recovery = None
        self._backend.router.mark_crashed(shard_id, reason)

    def recover_shard(self, shard_id: int) -> int:
        """Cold-recover one shard from its own store; returns replayed count."""
        anchor = self._anchors[shard_id]
        manager, state, replayed = RecoveryManager.recover(
            anchor,
            self._stores[shard_id],
            checkpoint_interval=self._checkpoint_interval,
            lease_chunk=self._lease_chunk,
        )
        generation = self._generations.get(shard_id, 0) + 1
        self._generations[shard_id] = generation
        shard = self._fleet.shards[shard_id]
        client = manager.rebuild_client(state, shard.server, generation)
        manager.attach_client(client)
        self._fleet.replace_client(shard_id, client)
        self._managers[shard_id] = manager
        self._backend.router.mark_recovered(shard_id)
        return replayed
