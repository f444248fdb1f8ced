"""The async serving tier, driven the two ways the benches drive it.

* :func:`tier_open_loop` — the real pipeline behind a tier that never
  suspends: pure pass-through, which is what the identity gates rely on.
* :func:`run_model_tier` — the model-mode schedule, open → burst →
  suspend → resume: ``session_count`` sessions open across
  ``open_window_us`` over a sharded model-executor fleet and burst once
  per round, ``ROUND_GAP_US`` apart.  Between bursts each idles past
  ``SUSPEND_AFTER_US``, is suspended into a real sealed ticket, and
  resumes on the next burst.  What a bench does *to* that schedule
  arrives as plain callbacks.
"""

from __future__ import annotations

from repro.async_serving.tier import (
    AsyncServingConfig,
    AsyncServingTier,
    ModelHandshakeEngine,
)
from repro.hardware.timing import CostModel
from repro.serving.gateway import FleetModelExecutor, Gateway, GatewayConfig
from repro.serving.loadgen import load_report, run_open_loop, synthetic_profiles
from repro.serving.reactor import VirtualReactor
from repro.serving.router import ShardSessionRouter

ROUNDS = 2  # suspend/resume cycles per session
ROUND_GAP_US = 1_000_000.0
SUSPEND_AFTER_US = 200_000.0


def tier_open_loop(gateway, sessions, *, flight=None, **offered):
    """Open-loop load through a tier that adopts the already-attested
    ``sessions`` (no handshakes, no resumption); returns ``(tier, load)``.
    ``offered`` is :func:`run_open_loop`'s rate/total/seed."""
    tier = AsyncServingTier(
        gateway, engine=None,
        config=AsyncServingConfig(suspend_after_us=None),
        flight=flight,
    )
    for session in sessions:
        tier.adopt_session(session.session_id)
    return tier, run_open_loop(tier, sessions, **offered)


def run_model_tier(
    *,
    seed: int,
    session_count: int,
    shards: int,
    cores_per_shard: int,
    open_window_us: float,
    session_prefix: bytes,
    flight=None,
    before_first_burst=None,
    observer=None,
    observe_every_us: float = 0.0,
):
    """Run the schedule to quiescence; return ``(tier, load report)``.

    ``before_first_burst(engine)`` fires 1 µs before the first session's
    first burst — where the benches bump the ticket epoch so every
    outstanding ticket goes stale.  ``observer(tier, now_us)`` fires
    every ``observe_every_us`` until two ticks past the last suspension.
    """
    cost = CostModel()
    engine = ModelHandshakeEngine(cost, seed=seed)
    reactor = VirtualReactor()
    gateways = {
        shard: Gateway(
            FleetModelExecutor(cores_per_shard, cost),
            GatewayConfig(max_queue_depth=session_count * 2,
                          max_in_flight_per_session=4),
            reactor=reactor,
        )
        for shard in range(shards)
    }
    router = ShardSessionRouter(gateways)
    tier = AsyncServingTier(
        router, engine,
        config=AsyncServingConfig(
            max_sessions=session_count,
            suspend_after_us=SUSPEND_AFTER_US,
        ),
        flight=flight,
    )
    profiles = synthetic_profiles(cost, "mixed", count=16, seed=seed)
    outcomes = []

    def open_and_submit(rid: bytes, ordinal: int) -> None:
        tier.open_session(rid)
        burst(rid, ordinal)

    def burst(rid: bytes, ordinal: int) -> None:
        tier.submit(rid, profiles[ordinal % len(profiles)],
                    on_done=outcomes.append)

    stride = open_window_us / session_count
    for index in range(session_count):
        rid = session_prefix + b"-%08d" % index
        t_open = index * stride
        reactor.call_at(t_open, open_and_submit, rid, index)
        for round_no in range(1, ROUNDS + 1):
            at = t_open + round_no * ROUND_GAP_US
            if before_first_burst is not None and round_no == 1 and index == 0:
                reactor.call_at(at - 1.0, before_first_burst, engine)
            reactor.call_at(at, burst, rid, index + round_no)
    if observer is not None:

        def observe() -> None:
            observer(tier, reactor.now_us)

        horizon = (
            open_window_us
            + ROUNDS * ROUND_GAP_US
            + SUSPEND_AFTER_US
            + 2 * observe_every_us
        )
        for tick in range(1, int(horizon / observe_every_us) + 1):
            reactor.call_at(tick * observe_every_us, observe)
    start_us = reactor.now_us
    tier.run()
    return tier, load_report(outcomes, tier.load_metrics(), start_us)
