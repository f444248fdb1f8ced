"""The sharded ORAM fleet and its state-backend facade.

``ShardedOramFleet`` owns N independent ORAM stores (per-shard server +
client, per-shard key derived from one master secret), and
``ShardRoutingClient`` presents them as a *single* client behind the
``oram.adapter`` seam: every page key routes through the consistent-
hash ring to exactly one shard, so the Hypervisor-facing API is
unchanged while the physical traffic fans out.

Obliviousness composes: each shard runs an unmodified ORAM protocol
over its own key subspace, and the ring assignment is a public,
data-independent function of the (already non-sensitive) page key —
the adversary learns which *shard* serves an access, which it could
compute itself, and nothing about which page within the shard.

The 1-shard configuration is byte-identical to the unsharded baseline
by construction: a single-shard ring routes every key to shard 0,
whose client is built with exactly the parameters (and derived key) an
unsharded deployment would use, so both issue the same access sequence
to the same protocol state machine.  ``bench_shard_scaleout`` asserts
the resulting trace/metrics/wire/world-digest hashes are equal.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.crypto.kdf import hkdf_sha256
from repro.oram import paging
from repro.oram.adapter import ObliviousStateBackend
from repro.oram.client import PathOramClient
from repro.oram.hierarchical import HierarchicalOramServer, PyramidOramClient
from repro.oram.server import OramServer
from repro.oram.store import build_client, build_server
from repro.sharding.coordinator import PinTicket, SyncRootCoordinator
from repro.sharding.errors import (
    ShardPinnedError,
    ShardUnavailableError,
    UnpinnedShardAccessError,
)
from repro.sharding.ring import ConsistentHashRing
from repro.state.account import Account, AccountMeta, Address


def shard_key(master_key: bytes, shard_id: int) -> bytes:
    """Derive one shard's ORAM key from the fleet master secret.

    HKDF with a per-shard info string: shard compromise exposes one
    key subspace, and key derivation is deterministic, so a recovered
    shard (or a re-built fleet) re-derives identical keys.
    """
    return hkdf_sha256(
        master_key, salt=b"hardtape-shard-keys", info=b"shard-%04d" % shard_id
    )


@dataclass
class ShardedOramConfig:
    """Fleet geometry: one ORAM store per shard, all identically sized.

    Every shard runs the path protocol unless ``backend_overrides``
    re-points it (e.g. a shard whose working set is small enough that
    the hierarchical layout wins).
    """

    shard_count: int = 4
    oram_height: int = 9
    block_size: int = paging.PAGE_SIZE
    vnodes: int = 128
    backend_overrides: dict[int, str] = field(default_factory=dict)
    pyramid_cache_blocks: int = 32


@dataclass
class OramShard:
    """One slice of the fleet: its store, its client, its key."""

    shard_id: int
    backend: str
    server: OramServer | HierarchicalOramServer
    client: PathOramClient | PyramidOramClient
    key: bytes


class ShardedOramFleet:
    """Builds and owns the per-shard ORAM stores."""

    def __init__(
        self,
        config: ShardedOramConfig,
        master_key: bytes,
        clock=None,
    ) -> None:
        if config.shard_count < 1:
            raise ValueError("a fleet needs at least one shard")
        self.config = config
        self.ring = ConsistentHashRing(
            range(config.shard_count), vnodes=config.vnodes
        )
        self._clock = clock
        self.shards: dict[int, OramShard] = {
            sid: self._build_shard(sid, master_key)
            for sid in range(config.shard_count)
        }

    def _build_shard(self, shard_id: int, master_key: bytes) -> OramShard:
        key = shard_key(master_key, shard_id)
        backend = self.config.backend_overrides.get(shard_id, "path")
        server = build_server(backend, height=self.config.oram_height)
        client = build_client(
            backend,
            server,
            key,
            block_size=self.config.block_size,
            clock=self._clock,
            pyramid_cache_blocks=self.config.pyramid_cache_blocks,
        )
        return OramShard(shard_id, backend, server, client, key)

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.shards))

    @property
    def block_size(self) -> int:
        return self.config.block_size

    def replace_client(self, shard_id: int, client) -> None:
        """Swap in a recovered client for one shard (recovery plane)."""
        shard = self.shards[shard_id]
        if client.block_size != shard.client.block_size:
            raise ValueError("recovered client has a different block size")
        shard.client = client


class ShardRoutingClient:
    """One client-shaped front over the fleet (the adapter's seam).

    Routes each access by ring; enforces the crash and pin disciplines:
    a crashed shard's keys raise the *typed per-shard*
    :class:`ShardUnavailableError` (never a fleet-wide failure), and
    while a pin ticket is active, touching a shard outside its declared
    set raises :class:`UnpinnedShardAccessError`.
    """

    def __init__(
        self,
        fleet: ShardedOramFleet,
        coordinator: SyncRootCoordinator | None = None,
    ) -> None:
        self._fleet = fleet
        self.coordinator = coordinator or SyncRootCoordinator(fleet.shard_ids)
        self.block_size = fleet.block_size
        self.recovery = None  # journaling arms per-shard clients, not the router
        self.memo = None
        self._crashed: dict[int, str] = {}
        self._active_ticket: PinTicket | None = None
        # Telemetry only: the shard that served the last routed access.
        self._last_shard: OramShard = fleet.shards[0]

    # -- routing -------------------------------------------------------

    def shard_for(self, key: bytes) -> int:
        return self._fleet.ring.shard_for(key)

    def _resolve(self, key: bytes) -> OramShard:
        shard_id = self._fleet.ring.shard_for(key)
        if shard_id in self._crashed:
            raise ShardUnavailableError(shard_id, self._crashed[shard_id])
        ticket = self._active_ticket
        if ticket is not None and shard_id not in ticket.shard_ids:
            raise UnpinnedShardAccessError(shard_id, ticket.ticket_id)
        self._last_shard = self._fleet.shards[shard_id]
        return self._last_shard

    def access(
        self,
        key: bytes,
        write_data: bytes | None = None,
        sim_time_us: float = 0.0,
        modify: Callable[[bytes | None], bytes | None] | None = None,
    ) -> bytes | None:
        return self._resolve(key).client.access(
            key, write_data, sim_time_us, modify
        )

    def read(self, key: bytes, sim_time_us: float = 0.0) -> bytes | None:
        return self._resolve(key).client.read(key, sim_time_us=sim_time_us)

    def write(self, key: bytes, data: bytes, sim_time_us: float = 0.0) -> None:
        self._resolve(key).client.write(key, data, sim_time_us=sim_time_us)

    @property
    def last_access(self):
        """Telemetry peek: the most recent access on any shard.

        Shard clients stamp their own summaries; the router reports the
        one belonging to the shard that served the last routed access.
        """
        return self._last_shard.client.last_access

    # -- crash discipline ----------------------------------------------

    def mark_crashed(self, shard_id: int, reason: str) -> None:
        if shard_id not in self._fleet.shards:
            raise ValueError(f"unknown shard {shard_id}")
        self._crashed[shard_id] = reason

    def mark_recovered(self, shard_id: int) -> None:
        self._crashed.pop(shard_id, None)

    # -- pin scope -----------------------------------------------------

    def begin_pinned(self, ticket: PinTicket) -> None:
        if self._active_ticket is not None:
            raise ShardPinnedError(
                self._active_ticket.shard_ids[0], self._active_ticket.ticket_id
            )
        self._active_ticket = ticket

    def end_pinned(self) -> None:
        self._active_ticket = None

    # -- diagnostics ---------------------------------------------------

    def per_shard_accesses(self) -> dict[int, int]:
        return {
            sid: shard.client.stats.accesses
            for sid, shard in sorted(self._fleet.shards.items())
        }


class ShardedObliviousStateBackend(ObliviousStateBackend):
    """``StateBackend`` over the whole fleet, plus the pin protocol.

    Drop-in where :class:`ObliviousStateBackend` goes — same query and
    sync API — with cross-shard transaction support layered on top:

    * :meth:`pinned` runs a block under a two-phase pin ticket covering
      exactly the shards its declared page keys touch.
    * :meth:`sync_account` and :meth:`sync_delta` refuse to overwrite
      state on a pinned shard (a sync racing an executing transaction is
      the consistency bug the pin protocol exists to prevent).
    """

    def __init__(
        self,
        fleet: ShardedOramFleet,
        clock: Callable[[], float] | None = None,
        on_query: Callable[[str, bytes], None] | None = None,
        coordinator: SyncRootCoordinator | None = None,
    ) -> None:
        super().__init__(ShardRoutingClient(fleet, coordinator), clock, on_query)
        self.fleet = fleet

    @property
    def router(self) -> ShardRoutingClient:
        return self.client  # type: ignore[return-value]

    @property
    def coordinator(self) -> SyncRootCoordinator:
        return self.router.coordinator

    # -- placement helpers ---------------------------------------------

    def shard_for_page(self, page_key: bytes) -> int:
        return self.fleet.ring.shard_for(page_key)

    def shards_for_pages(self, page_keys: Iterable[bytes]) -> tuple[int, ...]:
        return self.fleet.ring.shards_for(page_keys)

    # -- two-phase pin -------------------------------------------------

    def pin_transaction(self, page_keys: Iterable[bytes]) -> PinTicket:
        """Phase 1: pin the sync roots of every shard the keys touch."""
        shard_ids = self.fleet.ring.shards_for(page_keys)
        for sid in shard_ids:
            if sid in self.router._crashed:
                raise ShardUnavailableError(sid, self.router._crashed[sid])
        return self.coordinator.pin(shard_ids)

    @contextmanager
    def pinned(self, page_keys: Iterable[bytes]):
        """Execute a cross-shard transaction under a pin ticket."""
        ticket = self.pin_transaction(page_keys)
        self.router.begin_pinned(ticket)
        try:
            yield ticket
        finally:
            self.router.end_pinned()
            self.coordinator.release(ticket)

    # -- sync plane ----------------------------------------------------

    def access_cost_us(self, cost) -> float:
        """One access costs what its shard charges; in a homogeneous
        fleet that is any shard's price, so report the dearest."""
        return max(
            self._client_cost_us(shard.client, cost)
            for shard in self.fleet.shards.values()
        )

    def _refuse_pinned(self, page_keys: Iterable[bytes]) -> None:
        """A sync must not write a page on a shard a transaction pinned."""
        for sid in self.fleet.ring.shards_for(page_keys):
            if self.coordinator.is_pinned(sid):
                holders = self.coordinator._pins[sid]
                self.coordinator.stats.sync_conflicts += 1
                raise ShardPinnedError(sid, holders[0])

    def sync_account(self, address: Address, account: Account) -> int:
        pages = paging.account_pages(address, account)
        self._refuse_pinned(page_key for page_key, _ in pages)
        return self._write_pages(address, len(account.code), pages)

    def sync_delta(
        self,
        address: Address,
        meta: AccountMeta,
        slots: dict[int, int],
        code: bytes | None,
    ) -> int:
        self._refuse_pinned(
            [paging.account_page_key(address)]
            + [paging.storage_page_key(address, key) for key in slots]
            + [page_key for page_key, _ in paging.code_pages(address, code or b"")]
        )
        return super().sync_delta(address, meta, slots, code)

    def sync_world(
        self, accounts: dict[Address, Account], state_root: bytes | None = None
    ) -> int:
        total = super().sync_world(accounts)
        if state_root is not None:
            for sid in self.fleet.shard_ids:
                self.coordinator.note_root(sid, state_root)
        return total
