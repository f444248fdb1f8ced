"""Deterministic SLO monitoring over MetricsRegistry snapshots.

Classic burn-rate alerting, replayed in virtual time: the monitor is
fed periodic ``MetricsRegistry.snapshot()`` dicts stamped with the
virtual clock, keeps windowed counter baselines per rule, and fires
typed :class:`SloAlert` objects when an objective is breached.  Nothing
here reads a wall clock or mutates a metric — the monitor is a pure
fold over snapshots, so identically seeded runs fire byte-identical
alert sequences (the obs-bench alert gate).

Three rule kinds cover the serving planes' health signals:

* ``burn_rate`` — windowed counter-delta ratio (shed rate, stale-ticket
  rate).  Fires when ``Δnum / Δden`` over the window exceeds the
  objective; label-expanded counters (``gateway.rejected{reason=...}``)
  are summed under their base name.
* ``level`` — a single snapshot value against a ceiling (p99 full-
  handshake cost).
* ``ratio`` — one snapshot value over another (resumed/full handshake
  cost share).

Each rule re-arms only after ``window_us`` of virtual time (cooldown),
so a sustained breach produces a bounded, deterministic alert train.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

_KINDS = ("burn_rate", "level", "ratio")


@dataclass(frozen=True)
class SloRule:
    """One health objective evaluated against every snapshot."""

    name: str
    kind: str                       # one of _KINDS
    metrics: tuple[str, ...]        # numerator names / the level metric
    objective: float                # breach threshold (value > objective)
    window_us: float                # burn window and re-arm cooldown
    denominators: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown SLO rule kind {self.kind!r}")
        if self.kind in ("burn_rate", "ratio") and not self.denominators:
            raise ValueError(f"rule {self.name!r} ({self.kind}) needs denominators")
        if not self.metrics:
            raise ValueError(f"rule {self.name!r} names no metrics")


@dataclass(frozen=True, slots=True)
class SloAlert:
    """One deterministic breach: what fired, when, at what value."""

    rule: str
    kind: str
    at_us: float
    value: float
    objective: float
    window_us: float

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "at_us": self.at_us,
            "value": self.value,
            "objective": self.objective,
            "window_us": self.window_us,
        }


def _sum_family(snapshot: Mapping[str, float], name: str) -> float:
    """Sum a metric family: the bare name plus every labelled expansion."""
    total = snapshot.get(name, 0.0)
    prefix = name + "{"
    for key, value in snapshot.items():
        if key.startswith(prefix):
            total += value
    return total


@dataclass
class _RuleState:
    history: deque = field(default_factory=deque)  # (at_us, num, den)
    armed_at_us: float = float("-inf")


class SloMonitor:
    """Fold snapshots into alerts; deterministic, no metric mutation."""

    def __init__(self, rules: list[SloRule]) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate SLO rule names")
        self.rules = list(rules)
        self.alerts: list[SloAlert] = []
        self._state: dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in rules
        }

    def observe(
        self, snapshot: Mapping[str, float], at_us: float
    ) -> list[SloAlert]:
        """Evaluate every rule; returns (and records) newly fired alerts."""
        fired: list[SloAlert] = []
        for rule in self.rules:
            state = self._state[rule.name]
            value = self._evaluate(rule, state, snapshot, at_us)
            if value is None:
                continue
            if value > rule.objective and at_us >= state.armed_at_us:
                alert = SloAlert(
                    rule=rule.name,
                    kind=rule.kind,
                    at_us=at_us,
                    value=value,
                    objective=rule.objective,
                    window_us=rule.window_us,
                )
                fired.append(alert)
                self.alerts.append(alert)
                state.armed_at_us = at_us + rule.window_us
        return fired

    def _evaluate(
        self,
        rule: SloRule,
        state: _RuleState,
        snapshot: Mapping[str, float],
        at_us: float,
    ) -> float | None:
        if rule.kind == "level":
            return snapshot.get(rule.metrics[0])
        if rule.kind == "ratio":
            numerator = snapshot.get(rule.metrics[0])
            denominator = snapshot.get(rule.denominators[0])
            if numerator is None or not denominator:
                return None
            return numerator / denominator
        # burn_rate: windowed counter deltas.
        num = sum(_sum_family(snapshot, name) for name in rule.metrics)
        den = sum(_sum_family(snapshot, name) for name in rule.denominators)
        history = state.history
        history.append((at_us, num, den))
        # Baseline: the newest sample at or beyond the window's far edge,
        # so the delta spans at least window_us once enough time passed.
        while len(history) > 1 and history[1][0] <= at_us - rule.window_us:
            history.popleft()
        base_at, base_num, base_den = history[0]
        if base_at == at_us:
            return None  # first observation: no delta yet
        delta_den = den - base_den
        if delta_den <= 0:
            return None
        return (num - base_num) / delta_den

    def alert_dicts(self) -> list[dict]:
        """The full alert train, canonical dict form (bench fingerprint)."""
        return [alert.to_dict() for alert in self.alerts]


def default_slo_rules(*, window_us: float = 1_000_000.0) -> list[SloRule]:
    """The serving planes' stock health rules (obs-bench's rule set): a
    full handshake's p99 within 20 % over 100 ms, at most 1 % of
    submissions shed, a resumed handshake's p99 at most 5 % of a full
    one's, and at most 1 % of resume attempts refused as stale."""
    return [
        SloRule(
            name="handshake-p99-cost",
            kind="level",
            metrics=("tier.handshake_full_us.p99",),
            objective=100_000.0 * 1.2,
            window_us=window_us,
            description="p99 full attestation+DHKE handshake cost ceiling",
        ),
        SloRule(
            name="shed-rate",
            kind="burn_rate",
            metrics=("gateway.rejected",),
            denominators=("gateway.submitted",),
            objective=0.01,
            window_us=window_us,
            description="share of admissions shed at the gateway",
        ),
        SloRule(
            name="resumed-cost-share",
            kind="ratio",
            metrics=("tier.handshake_resumed_us.p99",),
            denominators=("tier.handshake_full_us.p99",),
            objective=0.05,
            window_us=window_us,
            description="resumed handshake p99 as a share of full",
        ),
        SloRule(
            name="stale-ticket-rate",
            kind="burn_rate",
            metrics=("tier.stale_tickets",),
            denominators=("tier.resumed", "tier.stale_tickets"),
            objective=0.01,
            window_us=window_us,
            description="resume attempts refused as stale (restart burn)",
        ),
    ]


__all__ = [
    "SloAlert",
    "SloMonitor",
    "SloRule",
    "default_slo_rules",
]
