"""Sim-time periodic sampling: ring-buffered time series per run.

The paper's telemetry loop samples network state every probing interval;
this module gives the *experimenter* the same continuous view of a run.  A
:class:`TimeSeriesStore` holds named series keyed by ``(name, labels)`` —
per-link queue depth and utilization, per-server load, telemetry staleness,
decision error — and a list of sampler callbacks.  The harness schedules
one engine event per ``interval`` seconds of sim time; each tick runs every
sampler, which reads live simulation state (never mutates it) and records
points via :meth:`TimeSeriesStore.record`.

Memory is bounded without losing the shape of long runs: each
:class:`Series` is a fixed-capacity buffer that, on overflow, drops every
second retained point and doubles its tick stride (classic 2:1 decimation).
The retained points are always exactly the offered samples whose tick index
is a multiple of the current stride — a deterministic function of the offer
sequence, so serial / parallel / cached runs export identical series.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Series", "TimeSeriesStore", "DEFAULT_CAPACITY"]

LabelsKey = Tuple[Tuple[str, str], ...]

# Points kept per series.  At the default experiment scales a run lasts
# O(100 s) of sim time, so even a 0.1 s sample interval fits undecimated.
DEFAULT_CAPACITY = 512


def _labels_key(labels: Dict[str, Any]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Series:
    """One ring-buffered time series with deterministic 2:1 decimation.

    ``offer(t, value)`` counts every offered sample; only offers whose tick
    index is a multiple of :attr:`stride` are retained.  When the buffer
    reaches ``capacity`` points it drops the odd-indexed ones and doubles
    the stride, so the effective sampling interval of the retained points is
    ``base_interval * stride`` and never more than half the buffer is lost
    to decimation.
    """

    __slots__ = ("name", "labels", "capacity", "stride", "offered", "points")

    def __init__(self, name: str, labels: LabelsKey, capacity: int = DEFAULT_CAPACITY):
        if capacity < 2 or capacity % 2 != 0:
            raise ValueError(f"capacity must be an even number >= 2, got {capacity}")
        self.name = name
        self.labels = labels
        self.capacity = capacity
        self.stride = 1          # retain every stride-th offered sample
        self.offered = 0         # total samples offered (tick counter)
        self.points: List[Tuple[float, float]] = []

    def offer(self, t: float, value: float) -> None:
        tick = self.offered
        self.offered += 1
        if tick % self.stride != 0:
            return
        self.points.append((t, float(value)))
        if len(self.points) >= self.capacity:
            # Keep the even-indexed points: exactly the offers with
            # tick % (2 * stride) == 0, preserving the strided invariant.
            del self.points[1::2]
            self.stride *= 2

    def __len__(self) -> int:
        return len(self.points)

    def last(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": "timeseries",
            "name": self.name,
            "labels": dict(self.labels),
            "stride": self.stride,
            "offered": self.offered,
            "points": [[t, v] for t, v in self.points],
        }


class TimeSeriesStore:
    """Named time series plus the samplers that feed them each tick.

    Samplers are callables ``fn(store, now)`` registered once at wiring
    time; :meth:`tick` runs them in registration order.  ``last_values``
    holds every ``(name, labels) -> value`` recorded during the *current*
    tick — the health monitor's evaluation input.
    """

    def __init__(self, interval: float, *, capacity: int = DEFAULT_CAPACITY):
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval}")
        self.interval = interval
        self.capacity = capacity
        self._series: Dict[Tuple[str, LabelsKey], Series] = {}
        self._samplers: List[Callable[["TimeSeriesStore", float], None]] = []
        self.ticks = 0
        self.last_values: Dict[Tuple[str, LabelsKey], float] = {}

    # -- wiring ------------------------------------------------------------

    def register(self, sampler: Callable[["TimeSeriesStore", float], None]) -> None:
        self._samplers.append(sampler)

    # -- sampling ----------------------------------------------------------

    def tick(self, now: float) -> None:
        """Run every sampler once at sim time ``now``."""
        self.ticks += 1
        self.last_values = {}
        for sampler in self._samplers:
            sampler(self, now)

    def record(self, name: str, now: float, value: float, **labels: Any) -> None:
        """Record one point on the ``(name, labels)`` series (creating it on
        first use) and expose the value to this tick's health evaluation."""
        self._record((name, _labels_key(labels)), now, value)

    def recorder(self, name: str, **labels: Any) -> Callable[[float, float], None]:
        """``record`` bound to one series: a ``fn(now, value)`` whose label
        key is sorted and stringified here, once, instead of at every point.
        For samplers that feed the same series each tick; the series itself
        is still created by its first point."""
        return partial(self._record, (name, _labels_key(labels)))

    def _record(self, key: Tuple[str, LabelsKey], now: float, value: float) -> None:
        series = self._series.get(key)
        if series is None:
            series = Series(key[0], key[1], self.capacity)
            self._series[key] = series
        series.offer(now, value)
        self.last_values[key] = float(value)

    # -- queries -----------------------------------------------------------

    def series(self, name: str, **labels: Any) -> Optional[Series]:
        return self._series.get((name, _labels_key(labels)))

    def all_series(self) -> List[Series]:
        return [self._series[key] for key in sorted(self._series)]

    def names(self) -> List[str]:
        return sorted({name for name, _ in self._series})

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> List[Dict[str, Any]]:
        """One JSON-ready record per series, sorted by (name, labels) for
        deterministic export."""
        out = []
        for key in sorted(self._series):
            record = self._series[key].snapshot()
            record["interval"] = self.interval
            out.append(record)
        return out
