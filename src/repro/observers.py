"""The observer registry: every instrument a run can carry, declared once.

Each :class:`Observer` entry is the one declaration of an instrument: its
name and parameter parse, the spec kinds that carry it, how two stampings
combine, how it is built, attached and finished for a run, the export
channel its output rides on, and its CLI flag.  Specs store one canonical
``observe`` mapping (``{name: parameter}``), the Runner stamps it,
``execute_spec`` builds the run's instruments from it, the hub
(:class:`repro.obs.Observability`) attaches, exports and summarises its
observers in registry order, and the CLI generates its flags from it.

Hub observers (``attr`` set) live on the hub under that attribute, where the
per-packet and per-decision call sites read them.  Only the standard library
is imported here, so the registry costs a plain run nothing.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Set, Tuple

from repro.errors import ExperimentError

__all__ = ["Observer", "REGISTRY", "normalize", "merge", "add_flags", "from_args",
           "undelivered"]

# Spec kinds, and the export channels an observer's output rides on.
EXPERIMENT = "experiment"
CALIBRATION = "calibration"
OBS_RECORDS = "obs_records"
TRACE_RECORDS = "trace_records"
PROVENANCE = "provenance"


def _switch(value: Any) -> Optional[bool]:
    return True if value else None


def _interval(value: Any) -> Optional[float]:
    if value is not None and not float(value) > 0:
        raise ExperimentError(f"sample_interval must be positive, got {value}")
    return None if value is None else float(value)


def _none(*_args: Any) -> None:
    return None


def _new(module: str, name: str, with_param: bool = False) -> Callable[[Any], Any]:
    """A builder importing its class only when a run asks for it."""
    def build(param: Any) -> Any:
        cls = getattr(importlib.import_module(module), name)
        return cls(param) if with_param else cls()
    return build


@dataclass(frozen=True)
class Observer:
    """One instrument.  ``parse`` maps a parameter to its canonical value,
    None meaning off; ``combine(current, stamped)`` merges a stamping into a
    spec that may already carry it.  Hub observers set ``attr`` and
    ``build(param)``, and their hooks take the built instance: ``bind(inst,
    clock)``, ``network(inst, hub, net)``, ``run(inst, hub, run)`` (``run``
    holds ``sim``, ``config``, ``probe_pairs``, ``servers``, ``collector``
    and ``store``), ``sampler(inst)`` (an extra time-series sampler, or
    None), ``finish(inst, task_records)``, ``records(inst, hub)`` and
    ``summary(inst, hub)``.  Engine observers set ``begin(engine, param)``,
    which fills ``engine.profiler`` / ``engine.memory``."""

    name: str
    flag: str
    help: str
    kinds: FrozenSet[str]
    channel: str
    parse: Callable[[Any], Any] = _switch
    combine: Callable[[Any, Any], Any] = lambda current, stamped: current or stamped
    implies: Tuple[str, ...] = ()
    argparse: Mapping[str, Any] = field(default_factory=lambda: {"action": "store_true"})
    from_arg: Callable[[Any], Any] = lambda value: value
    # The record kinds it exports, and whether it schedules simulator events
    # of its own (every other observer only reads state).
    record_kinds: Tuple[str, ...] = ()
    adds_events: bool = False
    attr: Optional[str] = None
    build: Callable[[Any], Any] = _none
    bind: Callable[..., None] = _none
    network: Callable[..., None] = _none
    run: Callable[..., None] = _none
    sampler: Callable[[Any], Any] = _none
    finish: Callable[..., None] = _none
    records: Callable[..., Any] = lambda inst, hub: []
    summary: Callable[..., Dict[str, Any]] = lambda inst, hub: {}
    begin: Callable[..., None] = _none

    @property
    def dest(self) -> str:
        """The argparse attribute the flag parses into."""
        return self.flag.lstrip("-").replace("-", "_")


def _sampling_summary(ts: Any, hub: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "timeseries": {"interval": ts.interval, "series": len(ts), "ticks": ts.ticks}
    }
    if hub.health is not None:
        out["health"] = hub.health.summary()
    return out


def _telquality_sampler(tq: Any) -> Callable[[Any, float], None]:
    # Feeds the coverage_gap / staleness_ceiling health rules.
    def sample_telquality(s: Any, now: float) -> None:
        frac = tq.coverage_fraction()
        if frac is not None:
            s.record("telemetry_coverage_frac", now, frac)
        age = tq.take_max_decision_age()
        if age is not None:
            s.record("telemetry_decision_age_max", now, age)
    return sample_telquality


def _whatif_sampler(wi: Any) -> Callable[[Any, float], None]:
    # Per-tick max decision regret feeds the regret_ceiling health rule.
    def sample_whatif(s: Any, now: float) -> None:
        regret = wi.take_max_regret()
        if regret is not None:
            s.record("decision_regret_max", now, regret)
    return sample_whatif


def _begin_profile(engine: Any, _param: Any) -> None:
    from repro.obs.perf import MemoryCapture
    from repro.simnet.engine import EngineProfiler

    # gc counters always ride with a profile; allocation sites only when
    # mem_profile asks for them.
    engine.profiler, engine.memory = EngineProfiler(), MemoryCapture()


def _begin_tracemalloc(engine: Any, _param: Any) -> None:
    engine.memory.tracemalloc_top = 10


_ALL_KINDS = frozenset({EXPERIMENT, CALIBRATION})
_EXPERIMENTS = frozenset({EXPERIMENT})

# Registry order is the order observers attach, export and summarise in.
REGISTRY: Dict[str, Observer] = {entry.name: entry for entry in (
    Observer(
        name="trace", flag="--trace-out",
        help="capture causal span traces (task/probe/scheduler-decision "
             "lifecycles) to a JSONL file; see the trace-report command",
        kinds=_EXPERIMENTS, channel=TRACE_RECORDS,
        argparse={"type": str, "default": None, "metavar": "PATH"},
        from_arg=lambda path: True, record_kinds=("span",),
        attr="trace", build=_new("repro.obs.tracing", "SpanTracer"),
        bind=lambda tracer, clock: tracer.bind_clock(clock),
        # Per-hop INT stamping spans reuse PacketTracer hop events over
        # exactly the trace-sampled probes.
        network=lambda tracer, hub, net: tracer.trace_packets(
            list(net.hosts.values()) + list(net.switches.values())
        ),
        finish=lambda tracer, task_records: tracer.assemble(task_records),
        records=lambda tracer, hub: tracer.snapshot(),
        summary=lambda tracer, hub: {
            "spans": len(tracer), "spans_dropped": tracer.dropped_spans,
        },
    ),
    Observer(
        name="profile", flag="--profile",
        help="profile the simulation engine (per-event-type counts, handler "
             "wall-time, and phase-level hot-path attribution) and print the "
             "merged summary",
        kinds=_ALL_KINDS, channel=PROVENANCE, begin=_begin_profile,
    ),
    Observer(
        name="mem_profile", flag="--mem-profile",
        help="add memory attribution (gc counters, allocated-block delta, "
             "tracemalloc top sites) to the profile; implies --profile",
        kinds=_ALL_KINDS, channel=PROVENANCE, implies=("profile",),
        begin=_begin_tracemalloc,
    ),
    Observer(
        name="sample_interval", flag="--sample-interval",
        help="sample network/server/scheduler state every S sim-seconds and "
             "evaluate health rules; the time series and alerts ride on the "
             "--obs-out export (see the dashboard command)",
        kinds=_EXPERIMENTS, channel=OBS_RECORDS, parse=_interval,
        # An already-sampled spec keeps its own interval.
        combine=lambda current, stamped: stamped if current is None else current,
        argparse={"type": float, "default": None, "metavar": "S"},
        record_kinds=("timeseries",), adds_events=True,
        attr="timeseries",
        build=_new("repro.obs.timeseries", "TimeSeriesStore", with_param=True),
        network=lambda ts, hub, net: hub.register_network_samplers(net),
        run=lambda ts, hub, run: hub.attach_experiment_samplers(run),
        records=lambda ts, hub: ts.snapshot(),
        summary=_sampling_summary,
    ),
    Observer(
        name="telquality", flag="--telquality",
        help="collect the telemetry-quality observatory (INT coverage ledger, "
             "freshness digests, decision-error attribution); the "
             "kind:\"telquality\" record rides on the --obs-out export (see "
             "the telemetry-report command)",
        kinds=_EXPERIMENTS, channel=OBS_RECORDS, record_kinds=("telquality",),
        attr="telquality", build=_new("repro.obs.telquality", "TelemetryQuality"),
        network=lambda tq, hub, net: tq.attach_network(net),
        run=lambda tq, hub, run: tq.configure(
            layout=run.config.probe_layout, pairs=run.probe_pairs,
            probing_interval=run.config.probing_interval,
        ),
        sampler=_telquality_sampler,
        records=lambda tq, hub: tq.snapshot_records(hub.events),
        summary=lambda tq, hub: {"telquality": tq.summary()},
    ),
    Observer(
        name="whatif", flag="--whatif",
        help="collect the counterfactual decision observatory (per-decision "
             "hindsight regret, alternative-policy replay, staleness "
             "attribution); the kind:\"whatif\" record rides on the --obs-out "
             "export (see the whatif-report command)",
        kinds=_EXPERIMENTS, channel=OBS_RECORDS, record_kinds=("whatif",),
        attr="whatif", build=_new("repro.obs.whatif", "WhatIf"),
        run=lambda wi, hub, run: wi.configure(
            probing_interval=run.config.probing_interval
        ),
        sampler=_whatif_sampler,
        # Last of all: it replays the audit snapshots exported before it.
        records=lambda wi, hub: wi.snapshot_records(hub.audit, hub.events),
        summary=lambda wi, hub: {"whatif": wi.summary()},
    ),
)}


def normalize(observe: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Parse every parameter, drop the ones that mean off, add what the rest
    imply, and order the result like the registry."""
    parsed = {}
    for name, value in (observe or {}).items():
        if name not in REGISTRY:
            raise ExperimentError(
                f"unknown observer {name!r}; known: {sorted(REGISTRY)}"
            )
        if (param := REGISTRY[name].parse(value)) is not None:
            parsed[name] = param
    for name in list(parsed):
        parsed.update({implied: True for implied in REGISTRY[name].implies})
    return {name: parsed[name] for name in REGISTRY if name in parsed}


def merge(
    kind: str, current: Mapping[str, Any], stamped: Mapping[str, Any]
) -> Dict[str, Any]:
    """``current`` with ``stamped`` combined in, keeping only the observers
    a ``kind`` spec carries (a calibration run has nothing to trace)."""
    out = dict(current)
    for name, param in normalize(stamped).items():
        if kind in REGISTRY[name].kinds:
            out[name] = REGISTRY[name].combine(out.get(name), param)
    return normalize(out)


def add_flags(parser: Any) -> None:
    """One CLI flag per registry entry."""
    for entry in REGISTRY.values():
        parser.add_argument(entry.flag, help=entry.help, **entry.argparse)


def from_args(args: Any) -> Dict[str, Any]:
    """The observe mapping a parsed command line asks for."""
    return normalize({
        entry.name: entry.from_arg(value)
        for entry in REGISTRY.values()
        if (value := getattr(args, entry.dest, None)) is not None
        and value is not False
    })


def undelivered(
    command: str, observe: Mapping[str, Any], kinds: Set[str], channels: Set[str]
) -> Optional[str]:
    """Why ``command`` (which runs ``kinds`` specs and writes ``channels``)
    would discard one of the requested observers, or None."""
    for entry in (REGISTRY[name] for name in observe):
        if not entry.kinds & kinds or entry.channel not in channels:
            return (
                f"{entry.flag} does nothing in '{command}': it observes "
                f"{'/'.join(sorted(entry.kinds))} runs into the {entry.channel} "
                f"export, and '{command}' runs {'/'.join(sorted(kinds))} specs "
                f"writing {'/'.join(sorted(channels))} only"
            )
    return None
