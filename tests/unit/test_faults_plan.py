"""FaultPlan: determinism, per-kind stream independence, validation."""

import pytest

from repro.faults.plan import FaultKind, FaultPlan, FaultRule


def test_rule_validation():
    with pytest.raises(ValueError):
        FaultRule("no-such-fault", 0.1)
    with pytest.raises(ValueError):
        FaultRule(FaultKind.DMA_DROP, 1.5)
    with pytest.raises(ValueError):
        FaultRule(FaultKind.DMA_DROP, -0.1)
    with pytest.raises(ValueError):
        FaultRule(FaultKind.DMA_DROP, 0.5, max_fires=-1)
    with pytest.raises(ValueError):
        FaultRule(FaultKind.ORAM_STALL, 0.5, stall_us=-1.0)


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(-1)
    with pytest.raises(ValueError):
        FaultPlan(2**64)
    with pytest.raises(ValueError):
        FaultPlan(1, [
            FaultRule(FaultKind.DMA_DROP, 0.1),
            FaultRule(FaultKind.DMA_DROP, 0.2),
        ])


def test_same_seed_reproduces_decisions_different_seed_differs():
    def run(seed):
        plan = FaultPlan(seed, [FaultRule(kind, 0.3) for kind in FaultKind.ALL])
        return [plan.decide(FaultKind.DMA_DROP) for i in range(200)]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_streams_are_independent_across_kinds():
    """Whether kind X's Nth decision fires depends only on (seed, X, N) —
    not on how other kinds' decision points interleave with it."""
    solo = FaultPlan(5, [FaultRule(FaultKind.DMA_CORRUPT, 0.25)])
    solo_decisions = [solo.decide(FaultKind.DMA_CORRUPT) for _ in range(100)]

    mixed = FaultPlan(5, [
        FaultRule(FaultKind.DMA_CORRUPT, 0.25),
        FaultRule(FaultKind.HEVM_CRASH, 0.5),
    ])
    mixed_decisions = []
    for _ in range(100):
        mixed.decide(FaultKind.HEVM_CRASH)  # interleave another kind
        mixed_decisions.append(mixed.decide(FaultKind.DMA_CORRUPT))
    assert mixed_decisions == solo_decisions


def test_zero_rate_and_unarmed_kinds_never_fire_or_draw():
    plan = FaultPlan(3, [FaultRule(FaultKind.DMA_DROP, 0.0)])
    assert not any(plan.decide(FaultKind.DMA_DROP) for _ in range(50))
    assert not any(plan.decide(FaultKind.HEVM_CRASH) for _ in range(50))
    # No draws at rate 0: the armed-but-quiet plan perturbs nothing.
    assert plan.decisions(FaultKind.DMA_DROP) == 0
    assert plan.decisions(FaultKind.HEVM_CRASH) == 0
    assert plan.total_injected == 0


def test_max_fires_caps_injections():
    plan = FaultPlan(2, [FaultRule(FaultKind.HEVM_CRASH, 1.0, max_fires=2)])
    fired = [plan.decide(FaultKind.HEVM_CRASH) for _ in range(10)]
    assert fired == [True, True] + [False] * 8
    assert plan.fires(FaultKind.HEVM_CRASH) == 2
    assert plan.decisions(FaultKind.HEVM_CRASH) == 10


def test_uniform_constructor_arms_every_kind():
    """A plan armed on every kind at one rate, built from one rule per
    kind, hands each kind's rule back."""
    plan = FaultPlan(4, [FaultRule(kind, 0.1) for kind in FaultKind.ALL])
    for kind in FaultKind.ALL:
        rule = plan.rule(kind)
        assert rule is not None and rule.rate == 0.1
    assert plan.rule(FaultKind.DMA_DROP) is not None


def test_record_keeps_ordered_audit_log():
    plan = FaultPlan(1)
    plan.record(FaultKind.DMA_DROP, "site-a", 10.0, "first")
    plan.record(FaultKind.HEVM_CRASH, "site-b", 20.0)
    assert plan.total_injected == 2
    assert [record.index for record in plan.log] == [0, 1]
    assert plan.log[0].kind == FaultKind.DMA_DROP
    assert plan.log[0].detail == "first"
    assert plan.log[1].site == "site-b"
