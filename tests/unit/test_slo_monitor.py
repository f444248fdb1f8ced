"""Unit tests for repro.telemetry.slo: rules, burn windows, cooldowns."""

import pytest

from repro.telemetry.slo import SloMonitor, SloRule, default_slo_rules


def _rule(**overrides):
    base = dict(
        name="r", kind="level", metrics=("m",),
        objective=10.0, window_us=100.0,
    )
    base.update(overrides)
    return SloRule(**base)


class TestRules:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _rule(kind="median")

    def test_burn_rate_needs_denominators(self):
        with pytest.raises(ValueError):
            _rule(kind="burn_rate")
        _rule(kind="burn_rate", denominators=("d",))  # ok

    def test_empty_metrics_rejected(self):
        with pytest.raises(ValueError):
            _rule(metrics=())

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            SloMonitor([_rule(), _rule()])

    def test_default_rules_cover_the_serving_planes(self):
        rules = {rule.name: rule for rule in default_slo_rules()}
        assert set(rules) == {
            "handshake-p99-cost", "shed-rate", "resumed-cost-share",
            "stale-ticket-rate",
        }
        assert rules["shed-rate"].kind == "burn_rate"
        SloMonitor(list(rules.values()))  # all constructible together


class TestLevelAndGauge:
    def test_level_fires_above_objective(self):
        monitor = SloMonitor([_rule()])
        assert monitor.observe({"m": 9.0}, 0.0) == []
        fired = monitor.observe({"m": 11.0}, 1.0)
        assert [alert.rule for alert in fired] == ["r"]
        assert fired[0].value == 11.0 and fired[0].at_us == 1.0

    def test_missing_metric_is_silent(self):
        monitor = SloMonitor([_rule()])
        assert monitor.observe({}, 0.0) == []

    def test_cooldown_bounds_the_alert_train(self):
        monitor = SloMonitor([_rule()])
        assert monitor.observe({"m": 11.0}, 0.0)        # fires
        assert not monitor.observe({"m": 11.0}, 50.0)   # within cooldown
        assert monitor.observe({"m": 11.0}, 100.0)      # re-armed
        assert len(monitor.alerts) == 2


class TestRatioAndBurn:
    def test_ratio_fires_and_guards_zero_denominator(self):
        rule = _rule(kind="ratio", metrics=("num",),
                     denominators=("den",), objective=0.5)
        monitor = SloMonitor([rule])
        assert monitor.observe({"num": 1.0, "den": 0.0}, 0.0) == []
        assert monitor.observe({"num": 3.0, "den": 4.0}, 1.0)

    def test_burn_rate_needs_a_baseline(self):
        rule = _rule(kind="burn_rate", metrics=("bad",),
                     denominators=("total",), objective=0.1)
        monitor = SloMonitor([rule])
        # First observation establishes the baseline: never fires.
        assert monitor.observe({"bad": 100.0, "total": 100.0}, 0.0) == []
        # Second: 10 new bad / 20 new total = 0.5 > 0.1.
        fired = monitor.observe({"bad": 110.0, "total": 120.0}, 50.0)
        assert fired and fired[0].value == pytest.approx(0.5)

    def test_burn_rate_sums_labelled_families(self):
        rule = _rule(kind="burn_rate", metrics=("rej",),
                     denominators=("sub",), objective=0.1)
        monitor = SloMonitor([rule])
        monitor.observe({"rej": 0.0, "sub": 0.0}, 0.0)
        fired = monitor.observe(
            {"rej": 1.0, 'rej{reason=queue_full}': 1.0, "sub": 4.0}, 10.0
        )
        assert fired and fired[0].value == pytest.approx(0.5)

    def test_burn_rate_window_slides(self):
        rule = _rule(kind="burn_rate", metrics=("bad",),
                     denominators=("total",), objective=0.9,
                     window_us=100.0)
        monitor = SloMonitor([rule])
        monitor.observe({"bad": 0.0, "total": 0.0}, 0.0)
        monitor.observe({"bad": 100.0, "total": 100.0}, 60.0)
        # At t=200 the t=0 baseline (and the t=60 burst) is out of window:
        # the delta vs t=60 is 0/100, not 100/200 — no alert.
        fired = monitor.observe({"bad": 100.0, "total": 200.0}, 200.0)
        assert fired == []

    def test_no_denominator_growth_is_silent(self):
        rule = _rule(kind="burn_rate", metrics=("bad",),
                     denominators=("total",), objective=0.1)
        monitor = SloMonitor([rule])
        monitor.observe({"bad": 0.0, "total": 5.0}, 0.0)
        assert monitor.observe({"bad": 3.0, "total": 5.0}, 50.0) == []


class TestDeterminism:
    def test_alert_dicts_are_replayable(self):
        def run():
            monitor = SloMonitor(default_slo_rules(window_us=100.0))
            snapshots = [
                ({"tier.stale_tickets": 0.0, "tier.resumed": 0.0}, 0.0),
                ({"tier.stale_tickets": 8.0, "tier.resumed": 2.0}, 50.0),
                ({"tier.stale_tickets": 8.0, "tier.resumed": 10.0}, 150.0),
            ]
            for snapshot, at in snapshots:
                monitor.observe(snapshot, at)
            return monitor.alert_dicts()

        first, second = run(), run()
        assert first == second
        assert [alert["rule"] for alert in first] == ["stale-ticket-rate"]
