"""Shard-aware session routing: spread tenants across the gateway fleet.

One :class:`~repro.serving.gateway.Gateway` fronts each shard's
serving stack; the router places every session on a shard with the
same consistent-hash construction the state plane uses (its own hash
domain, so tenant placement and page placement stay independent).
Stickiness matters twice over: a tenant's session keys live on one
device fleet, and its working set warms one shard's ORAM stash — so
the router never migrates a session except on explicit topology change
(a new ring), exactly like page keys.

:meth:`ShardSessionRouter.submit` decides the shard on every request
and nothing stores the answer — not the async tier, not a resumption
ticket — so no copy of it can outlive a ring change.

The router is deliberately thin: it owns no queue and no event loop of
its own — each gateway keeps its bounded queue and admission bounds,
and all of them schedule completions on the one reactor they share
(``router.reactor``; run *that* to advance the fleet) — so per-shard
behaviour under load is *identical* to a single-gateway deployment.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.serving.gateway import Gateway, GatewayRequest
from repro.sharding.ring import ConsistentHashRing

SESSION_RING_SEED = b"hardtape-session-ring"
SESSION_RING_VNODES = 64


class ShardSessionRouter:
    """Maps session ids to shards; submits to the owning gateway."""

    def __init__(self, gateways: dict[int, Gateway]) -> None:
        if not gateways:
            raise ValueError("a router needs at least one gateway")
        self._gateways = dict(sorted(gateways.items()))
        self.reactor = next(iter(self._gateways.values())).reactor
        if any(g.reactor is not self.reactor for g in self._gateways.values()):
            raise ValueError(
                "a router's gateways must share one reactor "
                "(build each with Gateway(..., reactor=shared))"
            )
        self.ring = ConsistentHashRing(
            self._gateways.keys(),
            vnodes=SESSION_RING_VNODES,
            seed=SESSION_RING_SEED,
        )

    # -- placement -----------------------------------------------------

    def shard_for_session(self, session_id: bytes) -> int:
        return self.ring.shard_for(session_id)

    # -- the gateway surface, fleet-wide -------------------------------

    def submit(
        self,
        session_id: bytes,
        payload: Any,
        *,
        at_us: float | None = None,
        device_index: int | None = None,
        on_done: Callable[[GatewayRequest], None] | None = None,
    ) -> GatewayRequest:
        """``Gateway.submit`` on the session's shard."""
        return self._gateways[self.shard_for_session(session_id)].submit(
            session_id,
            payload,
            at_us=at_us,
            device_index=device_index,
            on_done=on_done,
        )

    def load_metrics(self) -> dict[str, float]:
        """The snapshot a load report carries: every gateway's under a
        ``shard<N>.`` prefix."""
        return {
            f"shard{shard_id}.{key}": value
            for shard_id, gateway in self._gateways.items()
            for key, value in gateway.metrics.snapshot().items()
        }
