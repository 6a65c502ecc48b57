"""HealthMonitor: rule validation, streaks, fire/clear edge semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EventLog
from repro.obs.health import HealthMonitor, HealthRule, default_rules
from repro.obs.timeseries import TimeSeriesStore


def _monitor(rules):
    events = EventLog()
    return HealthMonitor(rules, events), events


def _tick(monitor, store, now, values):
    """Simulate one sampler tick recording ``{series: value}``."""
    store.tick(now)
    for name, value in values.items():
        store.record(name, now, value)
    monitor.evaluate(store, now)


def _alerts(events):
    return [
        (e.time, e.fields["rule"], e.fields["state"]) for e in events.of_kind("alert")
    ]


class TestRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthRule("r", series="s", threshold=1.0, consecutive=0)
        with pytest.raises(ValueError):
            HealthRule("r", series="s", threshold=1.0, comparison="gt")

    def test_breached_gte_and_lte(self):
        gte = HealthRule("r", series="s", threshold=2.0)
        assert gte.breached(2.0) and gte.breached(3.0) and not gte.breached(1.9)
        lte = HealthRule("r", series="s", threshold=2.0, comparison="lte")
        assert lte.breached(2.0) and lte.breached(1.0) and not lte.breached(2.1)

    def test_default_rules_parameterized_by_probing_interval(self):
        rules = {r.name: r for r in default_rules(0.1)}
        assert set(rules) == {
            "queue_saturation", "telemetry_stale", "estimate_drift", "probe_loss",
            "coverage_gap", "staleness_ceiling", "regret_ceiling",
        }
        assert rules["telemetry_stale"].threshold == pytest.approx(0.5)
        assert rules["staleness_ceiling"].threshold == pytest.approx(1.0)
        # A coverage gap is "too little", not "too much".
        assert rules["coverage_gap"].comparison == "lte"
        assert rules["coverage_gap"].breached(0.8)
        assert not rules["coverage_gap"].breached(0.95)
        # Regret is an absolute latency cost, same scale as estimate_drift.
        assert rules["regret_ceiling"].series == "decision_regret_max"
        assert rules["regret_ceiling"].threshold == pytest.approx(0.25)

    def test_duplicate_rule_names_rejected(self):
        rule = HealthRule("dup", series="s", threshold=1.0)
        with pytest.raises(ValueError):
            HealthMonitor([rule, rule], EventLog())


class TestEdges:
    def test_fires_only_after_n_consecutive(self):
        monitor, events = _monitor(
            [HealthRule("sat", series="q", threshold=0.9, consecutive=3)]
        )
        store = TimeSeriesStore(1.0)
        _tick(monitor, store, 1.0, {"q": 0.95})
        _tick(monitor, store, 2.0, {"q": 0.95})
        assert _alerts(events) == []
        _tick(monitor, store, 3.0, {"q": 0.95})
        assert _alerts(events) == [(3.0, "sat", "fire")]
        # Still breached: no repeat fire.
        _tick(monitor, store, 4.0, {"q": 0.99})
        assert _alerts(events) == [(3.0, "sat", "fire")]

    def test_dip_resets_streak(self):
        monitor, events = _monitor(
            [HealthRule("sat", series="q", threshold=0.9, consecutive=3)]
        )
        store = TimeSeriesStore(1.0)
        _tick(monitor, store, 1.0, {"q": 0.95})
        _tick(monitor, store, 2.0, {"q": 0.95})
        _tick(monitor, store, 3.0, {"q": 0.1})    # dip: streak back to zero
        _tick(monitor, store, 4.0, {"q": 0.95})
        _tick(monitor, store, 5.0, {"q": 0.95})
        assert _alerts(events) == []
        _tick(monitor, store, 6.0, {"q": 0.95})
        assert _alerts(events) == [(6.0, "sat", "fire")]

    def test_single_clear_edge_and_refire(self):
        monitor, events = _monitor(
            [HealthRule("sat", series="q", threshold=0.9, consecutive=1)]
        )
        store = TimeSeriesStore(1.0)
        _tick(monitor, store, 1.0, {"q": 0.95})
        _tick(monitor, store, 2.0, {"q": 0.1})
        _tick(monitor, store, 3.0, {"q": 0.1})    # already clear: no edge
        _tick(monitor, store, 4.0, {"q": 0.95})   # re-fire after clear
        assert _alerts(events) == [
            (1.0, "sat", "fire"), (2.0, "sat", "clear"), (4.0, "sat", "fire"),
        ]
        assert monitor.alerts_fired == 2
        assert monitor.alerts_cleared == 1

    def test_absent_series_leaves_state_untouched(self):
        monitor, events = _monitor(
            [HealthRule("sat", series="q", threshold=0.9, consecutive=2)]
        )
        store = TimeSeriesStore(1.0)
        _tick(monitor, store, 1.0, {"q": 0.95})
        _tick(monitor, store, 2.0, {})            # sampler had nothing
        _tick(monitor, store, 3.0, {"q": 0.95})   # streak resumes at 2
        assert _alerts(events) == [(3.0, "sat", "fire")]

    def test_labeled_instances_tracked_independently(self):
        monitor, events = _monitor(
            [HealthRule("sat", series="q", threshold=0.9, consecutive=1)]
        )
        store = TimeSeriesStore(1.0)
        store.tick(1.0)
        store.record("q", 1.0, 0.95, queue="q0")
        store.record("q", 1.0, 0.1, queue="q1")
        monitor.evaluate(store, 1.0)
        fired = events.of_kind("alert")
        assert len(fired) == 1
        assert fired[0].fields["target"] == "queue=q0"
        assert monitor.active_alerts() == [("sat", (("queue", "q0"),))]

    def test_alert_event_fields(self):
        monitor, events = _monitor(
            [HealthRule("sat", series="q", threshold=0.9, consecutive=1)]
        )
        store = TimeSeriesStore(1.0)
        _tick(monitor, store, 2.5, {"q": 0.95})
        event = events.of_kind("alert")[0]
        assert event.time == 2.5
        assert event.fields == {
            "rule": "sat", "series": "q", "target": "",
            "value": 0.95, "threshold": 0.9, "state": "fire",
        }

    def test_summary(self):
        monitor, _events = _monitor(
            [HealthRule("sat", series="q", threshold=0.9, consecutive=1)]
        )
        store = TimeSeriesStore(1.0)
        _tick(monitor, store, 1.0, {"q": 0.95})
        assert monitor.summary() == {
            "rules": 1, "alerts_fired": 1, "alerts_cleared": 0, "active": 1,
        }

    def test_lte_rule_fires_below_threshold(self):
        monitor, events = _monitor(
            [HealthRule("low", series="rate", threshold=0.5,
                        consecutive=1, comparison="lte")]
        )
        store = TimeSeriesStore(1.0)
        _tick(monitor, store, 1.0, {"rate": 0.2})
        assert _alerts(events) == [(1.0, "low", "fire")]


class _PerRuleSortMonitor(HealthMonitor):
    """``evaluate`` as it was before the per-tick index: every rule sorts
    all of the tick's series keys and skips the ones it does not watch.
    The reference the indexed body is held to."""

    def evaluate(self, store, now):
        for rule in self.rules:
            for series_key in sorted(store.last_values):
                name, labels_key = series_key
                if name != rule.series:
                    continue
                value = store.last_values[series_key]
                key = (rule.name, labels_key)
                if rule.breached(value):
                    streak = self._streak.get(key, 0) + 1
                    self._streak[key] = streak
                    if streak >= rule.consecutive and not self._fired.get(key):
                        self._fired[key] = True
                        self.alerts_fired += 1
                        self._emit(rule, labels_key, value, "fire", now)
                else:
                    self._streak[key] = 0
                    if self._fired.get(key):
                        self._fired[key] = False
                        self.alerts_cleared += 1
                        self._emit(rule, labels_key, value, "clear", now)


_SERIES = ("depth", "age", "loss")
_rule = st.builds(
    HealthRule,
    name=st.sampled_from(("a", "b", "c", "d", "e")),
    series=st.sampled_from(_SERIES + ("unsampled",)),
    threshold=st.sampled_from((0.25, 0.5, 0.75)),
    consecutive=st.integers(1, 3),
    comparison=st.sampled_from(("gte", "lte")),
)
# One tick: the points recorded, in recording order — (series, label, value).
_point = st.tuples(
    st.sampled_from(_SERIES), st.sampled_from((None, "q1", "q2", "q10")),
    st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
)


class TestIndexedEvaluate:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_rule, max_size=5, unique_by=lambda r: r.name),
        st.lists(st.lists(_point, max_size=8), max_size=8),
    )
    def test_same_alert_events_in_the_same_order(self, rules, ticks):
        def run(monitor_class):
            events = EventLog()
            monitor = monitor_class(rules, events)
            store = TimeSeriesStore(1.0)
            for now, points in enumerate(ticks):
                store.tick(float(now))
                for series, label, value in points:
                    labels = {} if label is None else {"queue": label}
                    store.record(series, float(now), value, **labels)
                monitor.evaluate(store, float(now))
            return [(e.time, dict(e.fields)) for e in events.of_kind("alert")], monitor.summary()

        assert run(HealthMonitor) == run(_PerRuleSortMonitor)
