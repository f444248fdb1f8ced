"""The sharding plane: world state partitioned across an ORAM fleet.

Sits beside ``repro.serving`` above the substrates: a consistent-hash
ring places page keys on shards (``ring``), a routing client presents
the fleet behind the ``oram.adapter`` seam (``backend``), cross-shard
transactions pin sync roots two-phase (``coordinator``), and each
shard checkpoints into its own durable store (``recovery``).
"""

from repro.sharding.backend import (
    OramShard,
    ShardedObliviousStateBackend,
    ShardedOramConfig,
    ShardedOramFleet,
    ShardRoutingClient,
    shard_key,
)
from repro.sharding.coordinator import PinStats, PinTicket, SyncRootCoordinator
from repro.sharding.errors import (
    RingConfigurationError,
    ShardingError,
    ShardPinnedError,
    ShardUnavailableError,
    UnpinnedShardAccessError,
    UnsupportedShardBackendError,
)
from repro.sharding.recovery import (
    ShardAnchor,
    ShardRecoveryCoordinator,
    SoftwareSealingAuthority,
)
from repro.sharding.ring import DEFAULT_RING_SEED, ConsistentHashRing

__all__ = [
    "ConsistentHashRing",
    "DEFAULT_RING_SEED",
    "OramShard",
    "PinStats",
    "PinTicket",
    "RingConfigurationError",
    "ShardAnchor",
    "ShardPinnedError",
    "ShardRecoveryCoordinator",
    "ShardRoutingClient",
    "ShardUnavailableError",
    "ShardedObliviousStateBackend",
    "ShardedOramConfig",
    "ShardedOramFleet",
    "ShardingError",
    "SoftwareSealingAuthority",
    "SyncRootCoordinator",
    "UnpinnedShardAccessError",
    "UnsupportedShardBackendError",
    "shard_key",
]
