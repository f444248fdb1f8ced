"""The sharding plane: world state partitioned across an ORAM fleet.

Beyond the paper, which runs one Path ORAM per deployment.  Sits beside
``repro.serving`` above the substrates: a consistent-hash ring places
page keys on shards (``ring``), and a routing client presents the fleet
behind the ``oram.adapter`` seam (``backend``).  Shard-bench, obs-bench
and the e2e ledger drive a fleet; no device runs on one.
"""

from repro.sharding.backend import (
    OramShard,
    ShardedObliviousStateBackend,
    ShardedOramConfig,
    ShardedOramFleet,
    ShardRoutingClient,
    shard_key,
)
from repro.sharding.errors import RingConfigurationError, ShardingError
from repro.sharding.ring import DEFAULT_RING_SEED, ConsistentHashRing

__all__ = [
    "ConsistentHashRing",
    "DEFAULT_RING_SEED",
    "OramShard",
    "RingConfigurationError",
    "ShardRoutingClient",
    "ShardedObliviousStateBackend",
    "ShardedOramConfig",
    "ShardedOramFleet",
    "ShardingError",
    "shard_key",
]
