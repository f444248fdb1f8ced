"""The sharded ORAM fleet and its state-backend facade.

``ShardedOramFleet`` owns N independent ORAM stores (per-shard server +
client, per-shard key derived from one master secret), and
``ShardRoutingClient`` presents them as a *single* client behind the
``oram.adapter`` seam: every page key routes through the consistent-
hash ring to exactly one shard, so the Hypervisor-facing API is
unchanged while the physical traffic fans out.

Each shard runs an unmodified ORAM protocol over its own key subspace,
so within one shard nothing is learned about which page an access
reads.  *Across* shards the fleet is not oblivious: a key's shard is a
fixed function of the key, so an SP that sees more than one shard sees
a repeated key as one shard repeated.  No served path builds a fleet
(the paper's §VI-D scales by HEVM count behind one ORAM server), and
its throughput bench is retired for that leak.

The module stays while three callers still build a fleet: the e2e
ledger (``workloads.sharding_probe`` imports it and ``trace.py``
patches two of its methods), obs-bench's sharded reconciliation leg
and SEC's per-shard leg.  It goes once the ledger drops its sharding
rows (ROADMAP items 4 (a) and 20); the ring stays, for the session
router.

The 1-shard configuration is byte-identical to the unsharded baseline
by construction: a single-shard ring routes every key to shard 0,
whose client is built with exactly the parameters (and derived key) an
unsharded deployment would use, so both issue the same access sequence
to the same protocol state machine.
``tests/unit/test_sharded_backend.py`` checks the leaf sequence and the
final tree bytes are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.crypto.kdf import hkdf_sha256
from repro.oram import paging
from repro.oram.adapter import ObliviousStateBackend
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.oram.store import build_client, build_server
from repro.sharding.ring import ConsistentHashRing
from repro.state.account import Account, Address


def shard_key(master_key: bytes, shard_id: int) -> bytes:
    """Derive one shard's ORAM key from the fleet master secret.

    HKDF with a per-shard info string: shard compromise exposes one
    key subspace, and key derivation is deterministic, so a re-built
    fleet re-derives identical keys.
    """
    return hkdf_sha256(
        master_key, salt=b"hardtape-shard-keys", info=b"shard-%04d" % shard_id
    )


@dataclass
class ShardedOramConfig:
    """Fleet geometry: one ORAM store per shard, all identically sized."""

    shard_count: int = 4
    oram_height: int = 9
    block_size: int = paging.PAGE_SIZE
    vnodes: int = 128


@dataclass
class OramShard:
    """One slice of the fleet: its store, its client, its key."""

    shard_id: int
    server: OramServer
    client: PathOramClient
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
        server = build_server(
            height=self.config.oram_height, block_size=self.config.block_size
        )
        client = build_client(
            server, key, block_size=self.config.block_size, clock=self._clock
        )
        return OramShard(shard_id, server, client, key)

    @property
    def block_size(self) -> int:
        return self.config.block_size


class ShardRoutingClient:
    """One client-shaped front over the fleet (the adapter's seam).

    Routes each access by ring to the one shard that owns the key.
    """

    def __init__(self, fleet: ShardedOramFleet) -> None:
        self._fleet = fleet
        self.block_size = fleet.block_size
        # Telemetry only: the shard that served the last routed access.
        self._last_shard: OramShard = fleet.shards[0]

    def _resolve(self, key: bytes) -> OramShard:
        self._last_shard = self._fleet.shards[self._fleet.ring.shard_for(key)]
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


class ShardedObliviousStateBackend(ObliviousStateBackend):
    """``StateBackend`` over the whole fleet.

    Drop-in where :class:`ObliviousStateBackend` goes — same query and
    sync API — with every page access routed by :class:`ShardRoutingClient`.
    """

    def __init__(
        self,
        fleet: ShardedOramFleet,
        clock: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(ShardRoutingClient(fleet), clock)
        self.fleet = fleet

    @property
    def router(self) -> ShardRoutingClient:
        return self.client  # type: ignore[return-value]

    def access_cost_us(self, cost) -> float:
        """One access costs what its shard charges; in a homogeneous
        fleet that is any shard's price, so report the dearest."""
        return max(
            self._client_cost_us(shard.client, cost)
            for shard in self.fleet.shards.values()
        )

    def sync_account(self, address: Address, account: Account) -> int:
        """The inherited page write, defined on this class so the e2e
        ledger's ``sharding.sync_account`` probe times the fleet's own
        entry point (``benchmarks/e2e/trace.py`` patches it here)."""
        return self._write_pages(
            address, len(account.code), paging.account_pages(address, account)
        )
