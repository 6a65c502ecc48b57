"""Declarative, hashable run specifications.

A spec is the *complete* recipe for one simulation run — everything that can
change the output is a field, everything is JSON-native, and the canonical
JSON form (sorted keys, compact separators) is hashed with SHA-256 to give
the run a content address.  Two consequences the runner builds on:

* **caching** — a spec hash names a result file (``.runcache/<hash>.json``);
  any field change, including the *contents* of an inlined fault plan or
  calibration curve, changes the hash and forces a recompute;
* **pairing** — :meth:`RunSpec.pairing_key` hashes only the fields that
  define workload/congestion identity (never the policy), so paired-seed
  derivation cannot be perturbed by which policies a grid sweeps or in what
  order.

Two spec kinds exist: :class:`RunSpec` (a full harness experiment — the
Fig. 5–9 grid cell) and :class:`CalibrationSpec` (one Fig. 3 utilization
level on the dumbbell topology).  ``spec_from_dict`` dispatches on the
``kind`` field so cache files and worker processes stay self-describing.
Both carry their observers (:mod:`repro.observers`) as one canonical
``observe`` field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import observers as registry
from repro.edge.background import TrafficScenario
from repro.edge.task import SizeClass
from repro.errors import ExperimentError

__all__ = [
    "canonical_json",
    "content_hash",
    "RunSpec",
    "CalibrationSpec",
    "spec_from_dict",
    "SPEC_KINDS",
]

_SIZE_CLASSES = {c.label: c for c in SizeClass}


def canonical_json(obj: Any) -> str:
    """The one canonical JSON form: sorted keys, compact separators, no NaN.

    Hashes, cache files, and byte-identity comparisons all go through this
    function so there is exactly one serialization to reason about."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_hash(obj: Any) -> str:
    """SHA-256 over the canonical JSON form (hex)."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _scenario_to_dict(scenario: TrafficScenario) -> Dict[str, Any]:
    return {
        "name": scenario.name,
        "slots": scenario.slots,
        "duration_choices": list(scenario.duration_choices),
        "gap_choices": list(scenario.gap_choices),
        "stagger": scenario.stagger,
        "rate_fraction_range": list(scenario.rate_fraction_range),
    }


def _scenario_from_dict(data: Dict[str, Any]) -> TrafficScenario:
    return TrafficScenario(
        name=data["name"],
        slots=data["slots"],
        duration_choices=tuple(data["duration_choices"]),
        gap_choices=tuple(data["gap_choices"]),
        stagger=data["stagger"],
        rate_fraction_range=tuple(data["rate_fraction_range"]),
    )


class _Spec:
    """Identity and observer stamping shared by both spec kinds."""

    KIND = ""

    def _check_observe(self) -> None:
        """Validate ``observe`` against the registry and store its canonical
        form (a mapping is accepted too)."""
        observe = registry.normalize(
            json.loads(self.observe) if isinstance(self.observe, str) else self.observe
        )
        misplaced = [n for n in observe if self.KIND not in registry.REGISTRY[n].kinds]
        if misplaced:
            raise ExperimentError(f"observers {misplaced} do not apply to {self.KIND} specs")
        object.__setattr__(self, "observe", canonical_json(observe) if observe else None)

    def observers(self) -> Dict[str, Any]:
        """This spec's ``{observer: parameter}`` mapping in registry order
        ({} when plain)."""
        return registry.normalize(json.loads(self.observe) if self.observe else {})

    def instrumented(
        self, observe: Optional[Mapping[str, Any]] = None, **params: Any
    ) -> Any:
        """This spec with observers combined in (``observe`` and keyword
        parameters by registry name).  Observers this kind does not carry
        are dropped; identity when nothing changes, so unobserved grids keep
        their spec objects."""
        merged = registry.merge(self.KIND, self.observers(), {**(observe or {}), **params})
        return self if merged == self.observers() else replace(self, observe=merged)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.KIND}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> Any:
        return cls(**{k: v for k, v in data.items() if k != "kind"})

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def content_hash(self) -> str:
        return content_hash(self.to_dict())

    def with_(self, **changes: Any) -> Any:
        """`dataclasses.replace` spelled as a method, for grid expansion."""
        return replace(self, **changes)


@dataclass(frozen=True)
class RunSpec(_Spec):
    """One experiment grid cell: topology workload, policy, probing config,
    fault plan (inlined by contents), seed, and scale — the full recipe for
    :func:`repro.experiments.harness.run_experiment`.

    Composite fields are stored as canonical JSON strings (``scenario_json``,
    ``fault_plan_json``, ``curve_knots``) so the spec itself stays frozen and
    hashable while the hash still covers their complete contents.
    """

    KIND = "experiment"

    policy: str = "aware"
    metric: str = "delay"
    workload: str = "serverless"
    size_class: str = "S"
    seed: int = 0
    # ExperimentScale fields, flattened.
    size_scale: float = 0.2
    total_tasks: int = 36
    mean_interarrival: float = 0.8
    time_scale: float = 0.2
    # Background congestion scenario, by contents.
    scenario_json: str = field(default="")
    # Probing configuration.
    probing_interval: float = 0.1
    probe_layout: str = "mesh"
    probe_size: Optional[int] = None
    # Scheduler knobs.
    k: float = 0.020
    selection: str = "top_k"
    curve_knots: Optional[Tuple[Tuple[float, float], ...]] = None
    deadline_slack: Optional[float] = None
    scheduler_processing_delay: float = 0.5e-3
    snmp_poll_interval: float = 30.0
    # Fault injection, by contents (not by scenario name): editing one event
    # inside a plan file must change the hash.
    fault_plan_json: Optional[str] = None
    degradation: bool = True
    task_retry_timeout: float = 4.0
    task_max_attempts: int = 4
    quarantine_ttl: float = 3.0
    # Observability: canonical-JSON run labels, or None for a plain run.
    # Part of the hash on purpose — an obs run carries extra payload, so it
    # must not alias a plain run's cache entry.
    obs_run_json: Optional[str] = None
    # Observers (repro.observers), stamped by the runner: canonical JSON of
    # {name: parameter}, or None for an unobserved run.  In the hash on
    # purpose — an observed payload carries extra records, and a profiled
    # run's provenance carries its profile, so neither may alias a plain
    # run's cache entry — and outside pairing_key.
    observe: Optional[str] = None

    def __post_init__(self) -> None:
        self._check_observe()
        if self.size_class not in _SIZE_CLASSES:
            raise ExperimentError(
                f"unknown size class {self.size_class!r}; "
                f"options: {sorted(_SIZE_CLASSES)}"
            )
        if not self.scenario_json:
            from repro.edge.background import DEFAULT_SCENARIO

            object.__setattr__(
                self, "scenario_json",
                canonical_json(_scenario_to_dict(DEFAULT_SCENARIO)),
            )
        if self.curve_knots is not None:
            object.__setattr__(
                self, "curve_knots",
                tuple((float(q), float(u)) for q, u in self.curve_knots),
            )

    # -- conversions -------------------------------------------------------

    @classmethod
    def from_config(
        cls, config: "Any", *, obs_run: Optional[Dict[str, Any]] = None
    ) -> "RunSpec":
        """Build a spec from an :class:`ExperimentConfig` (and back via
        :meth:`to_config` — the round trip is exact)."""
        return cls(
            policy=config.policy,
            metric=config.metric,
            workload=config.workload,
            size_class=config.size_class.label,
            seed=config.seed,
            size_scale=config.scale.size_scale,
            total_tasks=config.scale.total_tasks,
            mean_interarrival=config.scale.mean_interarrival,
            time_scale=config.scale.time_scale,
            scenario_json=canonical_json(_scenario_to_dict(config.scenario)),
            probing_interval=config.probing_interval,
            probe_layout=config.probe_layout,
            probe_size=config.probe_size,
            k=config.k,
            selection=config.selection,
            curve_knots=(
                tuple(config.curve.knots) if config.curve is not None else None
            ),
            deadline_slack=config.deadline_slack,
            scheduler_processing_delay=config.scheduler_processing_delay,
            snmp_poll_interval=config.snmp_poll_interval,
            fault_plan_json=(
                canonical_json(config.fault_plan.to_dict())
                if config.fault_plan is not None
                else None
            ),
            degradation=config.degradation,
            task_retry_timeout=config.task_retry_timeout,
            task_max_attempts=config.task_max_attempts,
            quarantine_ttl=config.quarantine_ttl,
            obs_run_json=canonical_json(obs_run) if obs_run is not None else None,
        )

    def to_config(self) -> "Any":
        from repro.core.estimators import QdepthUtilizationCurve
        from repro.experiments.harness import ExperimentConfig, ExperimentScale
        from repro.faults import FaultPlan

        return ExperimentConfig(
            policy=self.policy,
            metric=self.metric,
            workload=self.workload,
            size_class=_SIZE_CLASSES[self.size_class],
            seed=self.seed,
            scenario=_scenario_from_dict(json.loads(self.scenario_json)),
            scale=ExperimentScale(
                size_scale=self.size_scale,
                total_tasks=self.total_tasks,
                mean_interarrival=self.mean_interarrival,
                time_scale=self.time_scale,
            ),
            probing_interval=self.probing_interval,
            probe_layout=self.probe_layout,
            probe_size=self.probe_size,
            k=self.k,
            selection=self.selection,
            curve=(
                QdepthUtilizationCurve(list(self.curve_knots))
                if self.curve_knots is not None
                else None
            ),
            deadline_slack=self.deadline_slack,
            scheduler_processing_delay=self.scheduler_processing_delay,
            snmp_poll_interval=self.snmp_poll_interval,
            fault_plan=(
                FaultPlan.from_json(self.fault_plan_json)
                if self.fault_plan_json is not None
                else None
            ),
            degradation=self.degradation,
            task_retry_timeout=self.task_retry_timeout,
            task_max_attempts=self.task_max_attempts,
            quarantine_ttl=self.quarantine_ttl,
        )

    def obs_run(self) -> Optional[Dict[str, Any]]:
        """The run labels for this cell's observability hub, or None."""
        return json.loads(self.obs_run_json) if self.obs_run_json else None

    # -- identity ----------------------------------------------------------

    def pairing_key(self) -> str:
        """Hash of the workload/congestion identity only.

        Policy, ranking metric, scheduler knobs, and observability labels are
        excluded: cells that the paper's paired methodology compares task-by-
        task share this key, so anything derived from it (per-repeat seeds,
        pairing checks) is identical across the compared policies."""
        return content_hash(
            {
                "workload": self.workload,
                "size_class": self.size_class,
                "seed": self.seed,
                "size_scale": self.size_scale,
                "total_tasks": self.total_tasks,
                "mean_interarrival": self.mean_interarrival,
                "time_scale": self.time_scale,
                "scenario": self.scenario_json,
                "fault_plan": self.fault_plan_json,
            }
        )

    def expected_sim_duration(self) -> float:
        """Rough expected simulated seconds for this run, used to scale the
        default per-run wall-clock timeout (see
        :func:`repro.runner.supervisor.default_run_timeout`).  The arrival
        process dominates: ``total_tasks * mean_interarrival`` plus slack
        for the tail of in-flight tasks to drain."""
        return self.total_tasks * self.mean_interarrival + 30.0

    def label(self) -> str:
        """Short human label for progress lines."""
        return f"{self.policy}/{self.size_class} seed={self.seed}"


@dataclass(frozen=True)
class CalibrationSpec(_Spec):
    """One Fig. 3 calibration point: a utilization level on the dumbbell."""

    KIND = "calibration"

    utilization: float = 0.0
    duration: float = 300.0
    rate_bps: float = 20e6
    link_delay: float = 0.010
    probing_interval: float = 0.1
    seed: int = 0
    # Observers, as on RunSpec; a calibration run has no tasks, probes or
    # decisions to observe, so only the engine observers apply.
    observe: Optional[str] = None

    def __post_init__(self) -> None:
        self._check_observe()

    def pairing_key(self) -> str:
        return self.content_hash()

    def expected_sim_duration(self) -> float:
        """Calibration runs simulate exactly ``duration`` seconds."""
        return self.duration

    def label(self) -> str:
        return f"calibration u={self.utilization:g} seed={self.seed}"


SPEC_KINDS = {
    RunSpec.KIND: RunSpec,
    CalibrationSpec.KIND: CalibrationSpec,
}


def spec_from_dict(data: Dict[str, Any]) -> Any:
    """Rebuild a spec from its ``to_dict`` form, dispatching on ``kind``."""
    kind = data.get("kind")
    cls = SPEC_KINDS.get(kind)
    if cls is None:
        raise ExperimentError(
            f"unknown spec kind {kind!r}; known: {sorted(SPEC_KINDS)}"
        )
    return cls.from_dict(data)
