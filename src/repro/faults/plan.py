"""Deterministic fault plans: *what* can fail, *when*, and *how often*.

A :class:`FaultPlan` is the single source of nondeterminism for a chaos
run.  It owns one seeded :class:`~repro.crypto.kdf.Drbg` **per fault
kind** (forked from the plan seed by kind label), so whether the Nth
decision of one kind fires depends only on ``(seed, kind, N)`` — never
on how decision points of *other* kinds interleave with it.  That makes
every injection reproducible from ``(seed, plan)`` alone, which is the
bar the chaos benchmarks assert bit-for-bit.

No wall clock anywhere: schedules are windows in **virtual** µs
(:class:`~repro.hardware.timing.SimClock` time), and "random" is the
HMAC-DRBG.  Two runs with the same seed and plan inject the same faults
at the same decision points, full stop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import Drbg


def _derive_all(cls):
    """Set ``cls.ALL`` to every upper-case string attribute, in
    definition order.  Keeping the tuple derived (rather than
    hand-maintained) guarantees a newly declared kind is provisioned a
    DRBG fork and fire/decision counters — it cannot silently drift out
    of the plan's maps.  Drbg forks are label-keyed, so appending kinds
    never shifts the streams of existing ones."""
    cls.ALL = tuple(
        value
        for name, value in vars(cls).items()
        if name.isupper() and name != "ALL" and isinstance(value, str)
    )
    return cls


@_derive_all
class FaultKind:
    """String identities of every injectable fault (stable metric names)."""

    DMA_DROP = "dma-drop"                  # channel message lost on the wire
    DMA_DUPLICATE = "dma-duplicate"        # channel message delivered twice
    DMA_CORRUPT = "dma-corrupt"            # channel ciphertext bit-flipped
    ORAM_TAG_CORRUPT = "oram-tag-corrupt"  # AES-GCM tag corrupted in storage
    ORAM_STALL = "oram-stall"              # ORAM server answers late
    HEVM_CRASH = "hevm-crash"              # core dies mid-bundle
    ATTESTATION_FAIL = "attestation-fail"  # report tampered before the user
    SYNC_STALE_HEADER = "sync-stale-header"  # Node serves a forked root
    HYPERVISOR_CRASH = "hypervisor-crash"  # whole Hypervisor cold-restarts
    # Byzantine kinds: the device is not failing, it is *lying*.
    HEVM_RESULT_TAMPER = "hevm-result-tamper"  # execution result falsified
    RECEIPT_FORGE = "receipt-forge"        # receipt signed with a bad sig
    RECEIPT_OMIT = "receipt-omit"          # receipt silently withheld
    SYNC_EQUIVOCATE = "sync-equivocate"    # block withheld from ORAM sync

    ALL: tuple[str, ...]  # derived by @_derive_all


@dataclass(frozen=True)
class FaultRule:
    """One armed fault kind: probability per decision point, plus limits.

    ``rate`` is the per-decision-point firing probability.  ``max_fires``
    caps total injections (handy for "crash exactly once" tests);
    ``stall_us`` parameterizes how long an ``oram-stall`` holds the
    answer.
    """

    kind: str
    rate: float
    max_fires: int | None = None
    stall_us: float = 50_000.0

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError("max_fires must be non-negative")
        if self.stall_us < 0:
            raise ValueError("stall_us must be non-negative")


@dataclass(frozen=True)
class InjectionRecord:
    """One injected fault, for the audit log every chaos run keeps."""

    index: int
    kind: str
    site: str
    sim_time_us: float
    detail: str = ""


class FaultPlan:
    """Seeded, self-logging decision oracle for the injector.

    ``decide(kind)`` is called at every decision point (every
    channel message, ORAM path read, transaction start, ...).  It draws
    from the kind's private DRBG stream whenever the kind is armed with
    a nonzero rate — even when the fire cap then vetoes
    the injection — so the stream position stays a pure function of the
    decision count.  Kinds armed at rate 0 (and kinds with no rule) skip
    the draw entirely: a zero-rate plan perturbs *nothing*, which is why
    the zero-rate chaos run reproduces the baseline bit-for-bit.
    """

    def __init__(self, seed: int, rules: list[FaultRule] | None = None) -> None:
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed
        self._rules: dict[str, FaultRule] = {}
        for rule in rules or []:
            if rule.kind in self._rules:
                raise ValueError(f"duplicate rule for kind {rule.kind!r}")
            self._rules[rule.kind] = rule
        root = Drbg(seed.to_bytes(8, "big"), personalization=b"fault-plan")
        self._streams = {
            kind: root.fork(b"kind:" + kind.encode()) for kind in FaultKind.ALL
        }
        self._fires: dict[str, int] = {kind: 0 for kind in FaultKind.ALL}
        self._decisions: dict[str, int] = {kind: 0 for kind in FaultKind.ALL}
        self.log: list[InjectionRecord] = []

    def rule(self, kind: str) -> FaultRule:
        """The armed rule for ``kind`` (``KeyError`` if none is)."""
        return self._rules[kind]

    def fires(self, kind: str) -> int:
        """How many times ``kind`` has fired so far."""
        return self._fires[kind]

    def decisions(self, kind: str) -> int:
        """How many decision points ``kind`` has seen so far."""
        return self._decisions[kind]

    def _uniform01(self, kind: str) -> float:
        raw = int.from_bytes(self._streams[kind].random_bytes(8), "big")
        return raw / 2.0**64

    def decide(self, kind: str) -> bool:
        """Should ``kind`` fire at this decision point?"""
        rule = self._rules.get(kind)
        if rule is None or rule.rate == 0.0:
            return False
        self._decisions[kind] += 1
        draw = self._uniform01(kind)  # always drawn: position == decision count
        if rule.max_fires is not None and self._fires[kind] >= rule.max_fires:
            return False
        if draw >= rule.rate:
            return False
        self._fires[kind] += 1
        return True

    def record(self, kind: str, site: str, now_us: float, detail: str = "") -> None:
        """Append one injection to the audit log."""
        self.log.append(
            InjectionRecord(len(self.log), kind, site, now_us, detail)
        )

    @property
    def total_injected(self) -> int:
        return len(self.log)


__all__ = ["FaultKind", "FaultPlan", "FaultRule", "InjectionRecord"]
