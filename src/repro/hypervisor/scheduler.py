"""HEVM scheduling (workflow step 3).

The Hypervisor *exclusively* assigns an idle core to the session and
activates it; with no idle core the bundle is refused (waiting happens
in front of the device, in the serving gateway's queue).  No context
switches happen during a bundle's lifecycle — a core runs one bundle to
completion, then is reset (all on-chip memories cleared) and returned to
the pool.  That no-sharing discipline is the root-cause fix for attack
A2 and is enforced here as an invariant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.hardware.hevm import HevmCore
from repro.telemetry.tracer import tracer_for


class SchedulingError(Exception):
    """An isolation invariant was about to be violated."""


@dataclass
class Assignment:
    """One exclusive core↔session binding."""

    core: HevmCore
    session_id: bytes
    started_at_us: float


@dataclass
class SchedulerStats:
    bundles_started: int = 0
    bundles_completed: int = 0


class HevmScheduler:
    """A fixed pool of dedicated cores, handed out one bundle at a time."""

    def __init__(self, cores: list[HevmCore], clock=None) -> None:
        self._idle: deque[HevmCore] = deque(cores)
        self._assignments: dict[int, Assignment] = {}
        self.stats = SchedulerStats()
        # Dispatch decisions cost no virtual time; the clock is only for
        # tracer lookup so assignments appear as (zero-width) spans.
        self._clock = clock

    @property
    def idle_count(self) -> int:
        return len(self._idle)

    def acquire(self, session_id: bytes, now_us: float) -> Assignment:
        """Bind the next idle core to the session, exclusively."""
        if not self._idle:
            raise SchedulingError("HEVM pool exhausted: every core is assigned")
        core = self._idle.popleft()
        if core.busy:
            raise SchedulingError(
                f"core {core.core_id} was in the idle pool but marked busy"
            )
        core.busy = True
        assignment = Assignment(core, session_id, now_us)
        self._assignments[core.core_id] = assignment
        self.stats.bundles_started += 1
        tracer_for(self._clock).record(
            "scheduler.assign",
            "hypervisor",
            0.0,
            start_us=now_us,
            core=core.core_id,
            # Nothing waits inside the device; the attributes stay so
            # trace exports keep their shape.
            queue_wait_us=0.0,
            queue_depth=0,
        )
        return assignment

    def release(self, core: HevmCore) -> None:
        """Workflow step 10: reset the core and return it to the pool."""
        assignment = self._assignments.pop(core.core_id, None)
        if assignment is None:
            raise SchedulingError(
                f"core {core.core_id} released without an assignment"
            )
        core.reset()  # clears L1/L2 caches — nothing leaks across users
        self._idle.append(core)
        self.stats.bundles_completed += 1
