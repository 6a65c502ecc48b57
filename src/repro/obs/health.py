"""Network health monitoring: declarative rules over sampled time series.

ENTS-style runtime health for the reproduction: instead of discovering a
saturated queue or a dark telemetry corner *after* the run by reading event
logs, a :class:`HealthMonitor` evaluates a set of :class:`HealthRule`\\ s at
every sampler tick and emits typed ``alert`` events — with explicit fire and
clear *edges*, not per-tick spam — into the run's observability event log.

A rule watches one time-series name (every labeled instance of it
independently) and fires when the sampled value breaches its threshold for
``consecutive`` ticks in a row.  A single below-threshold sample resets the
streak; a breach after a fire keeps the alert pending-clear until the value
drops back, which emits exactly one ``clear`` edge.  Instances absent from
a tick (a sampler that had nothing to report) leave their streaks and fired
states untouched.

:func:`default_rules` encodes the conditions the paper's pipeline depends
on: egress queues saturating, per-node telemetry going stale past a
probing-interval multiple, the Algorithm-1 delay estimate drifting from
ground truth, and probe loss (collector seq gaps) exceeding a rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.obs.timeseries import TimeSeriesStore

__all__ = ["HealthRule", "HealthMonitor", "default_rules"]

CMP_GTE = "gte"
CMP_LTE = "lte"


@dataclass(frozen=True)
class HealthRule:
    """One declarative condition over a sampled series."""

    name: str                 # alert name, e.g. "queue_saturation"
    series: str               # time-series name this rule watches
    threshold: float
    consecutive: int = 1      # breaches in a row required to fire
    comparison: str = CMP_GTE  # "gte": value >= threshold breaches

    def __post_init__(self) -> None:
        if self.consecutive < 1:
            raise ValueError(f"rule {self.name}: consecutive must be >= 1")
        if self.comparison not in (CMP_GTE, CMP_LTE):
            raise ValueError(
                f"rule {self.name}: unknown comparison {self.comparison!r}"
            )

    def breached(self, value: float) -> bool:
        if self.comparison == CMP_LTE:
            return value <= self.threshold
        return value >= self.threshold


def default_rules(
    probing_interval: float,
    *,
    queue_frac: float = 0.9,
    queue_consecutive: int = 3,
    staleness_multiple: float = 5.0,
    error_threshold: float = 0.25,
    error_consecutive: int = 3,
    loss_rate: float = 0.05,
    loss_consecutive: int = 2,
    coverage_frac: float = 0.9,
    coverage_consecutive: int = 2,
    ceiling_multiple: float = 10.0,
    regret_threshold: float = 0.25,
    regret_consecutive: int = 3,
) -> Tuple[HealthRule, ...]:
    """The built-in rule set, parameterized by the run's probing interval.

    * ``queue_saturation`` — an egress queue at >= ``queue_frac`` of its
      capacity for ``queue_consecutive`` samples;
    * ``telemetry_stale`` — a node unseen on any probe path for longer than
      ``staleness_multiple`` probing intervals;
    * ``estimate_drift`` — the windowed mean absolute estimate-vs-truth
      delay error above ``error_threshold`` seconds;
    * ``probe_loss`` — the collector's seq-gap loss rate above ``loss_rate``;
    * ``coverage_gap`` — the telemetry-quality observatory sees less than
      ``coverage_frac`` of the directed fabric ports;
    * ``staleness_ceiling`` — a scheduler decision consulted telemetry older
      than ``ceiling_multiple`` probing intervals;
    * ``regret_ceiling`` — a decision's hindsight regret (true delay of the
      chosen candidate minus the best candidate's) above
      ``regret_threshold`` seconds, same scale as ``estimate_drift``.

    ``coverage_gap``/``staleness_ceiling`` watch series only the
    telemetry-quality observatory records (``--telquality`` with sampling)
    and ``regret_ceiling`` only the counterfactual observatory's
    (``--whatif`` with sampling); without those flags they never see a
    sample and never fire, keeping pre-observatory runs unchanged.
    """
    return (
        HealthRule(
            "queue_saturation", series="queue_depth_frac",
            threshold=queue_frac, consecutive=queue_consecutive,
        ),
        HealthRule(
            "telemetry_stale", series="telemetry_node_age",
            threshold=staleness_multiple * probing_interval, consecutive=2,
        ),
        HealthRule(
            "estimate_drift", series="decision_abs_error",
            threshold=error_threshold, consecutive=error_consecutive,
        ),
        HealthRule(
            "probe_loss", series="probe_loss_rate",
            threshold=loss_rate, consecutive=loss_consecutive,
        ),
        HealthRule(
            "coverage_gap", series="telemetry_coverage_frac",
            threshold=coverage_frac, consecutive=coverage_consecutive,
            comparison=CMP_LTE,
        ),
        HealthRule(
            "staleness_ceiling", series="telemetry_decision_age_max",
            threshold=ceiling_multiple * probing_interval, consecutive=2,
        ),
        HealthRule(
            "regret_ceiling", series="decision_regret_max",
            threshold=regret_threshold, consecutive=regret_consecutive,
        ),
    )


class HealthMonitor:
    """Evaluates rules at each sampler tick and emits alert edges.

    ``events`` is the run's :class:`~repro.obs.events.EventLog` (or anything
    with a compatible ``alert`` method).  State is per (rule, labeled series
    instance): a breach streak and a fired flag.
    """

    def __init__(self, rules, events: Any) -> None:
        self.rules: Tuple[HealthRule, ...] = tuple(rules)
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self.events = events
        self._streak: Dict[Tuple[str, Any], int] = {}
        self._fired: Dict[Tuple[str, Any], bool] = {}
        self.alerts_fired = 0
        self.alerts_cleared = 0

    def evaluate(self, store: TimeSeriesStore, now: float) -> None:
        """Evaluate every rule against the values sampled this tick: each
        rule walks the instances of its own series, in label order."""
        values = store.last_values
        instances: Dict[str, List[Any]] = {}
        for series_key in sorted(values):
            instances.setdefault(series_key[0], []).append(series_key)
        for rule in self.rules:
            for series_key in instances.get(rule.series, ()):
                labels_key = series_key[1]
                value = values[series_key]
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

    def _emit(
        self, rule: HealthRule, labels_key, value: float, state: str, now: float
    ) -> None:
        self.events.alert(
            rule=rule.name,
            series=rule.series,
            target=",".join(f"{k}={v}" for k, v in labels_key),
            value=value,
            threshold=rule.threshold,
            state=state,
            time=now,
        )

    # -- introspection -----------------------------------------------------

    def active_alerts(self) -> List[Tuple[str, Any]]:
        """Currently-firing (rule, labels-key) pairs, sorted."""
        return sorted(key for key, fired in self._fired.items() if fired)

    def summary(self) -> Dict[str, int]:
        return {
            "rules": len(self.rules),
            "alerts_fired": self.alerts_fired,
            "alerts_cleared": self.alerts_cleared,
            "active": len(self.active_alerts()),
        }
