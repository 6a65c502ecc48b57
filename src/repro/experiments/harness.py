"""End-to-end experiment harness: one policy × workload × congestion run.

``run_experiment`` assembles the full system on the Fig. 4 topology —
servers, devices, scheduler service, probing, background traffic — replays a
pre-materialized workload plan, and returns the per-task metrics.  Runs that
share a seed see byte-identical workloads and congestion timelines, so
policies can be compared task-by-task (the paper's paired methodology).

Scale presets trade fidelity for wall-clock time: ``FULL_SCALE`` is the
paper's 200-task setup (minutes of wall-clock per run); ``QUICK_SCALE``
shrinks Table I sizes and scenario durations proportionally for integration
tests and benchmarks; ``SMOKE_SCALE`` is for unit-level smoke tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.baselines import NearestScheduler, RandomScheduler
from repro.core.scheduler import (
    METRIC_BANDWIDTH,
    METRIC_DELAY,
    METRIC_RAW,
    NetworkAwareScheduler,
    SchedulerService,
)
from repro.core.estimators import QdepthUtilizationCurve
from repro.edge.background import BackgroundTraffic, DEFAULT_SCENARIO, TrafficScenario
from repro.edge.device import EdgeDevice
from repro.edge.metrics import MetricsCollector, TaskRecord
from repro.edge.server import EdgeServer
from repro.edge.task import SizeClass
from repro.edge.workload import WorkloadGenerator, WorkloadSpec, build_plan
from repro.errors import ExperimentError
from repro.experiments.fig4_topology import Fig4Topology, build_fig4_network
from repro.faults import FaultInjector, FaultPlan
from repro.simnet.engine import PeriodicTimer, Simulator
from repro.simnet.flows import UdpSink, reset_flow_ids
from repro.simnet.packet import MTU, reset_packet_ids
from repro.simnet.random import RandomStreams, run_streams
from repro.telemetry.collector import IntCollector
from repro.telemetry.probe import ProbeResponder, ProbeSender

__all__ = [
    "POLICY_AWARE",
    "POLICY_NEAREST",
    "POLICY_RANDOM",
    "ExperimentScale",
    "FULL_SCALE",
    "QUICK_SCALE",
    "SMOKE_SCALE",
    "ExperimentConfig",
    "ExperimentResult",
    "reset_run_state",
    "run_experiment",
]

POLICY_AWARE = "aware"
POLICY_NEAREST = "nearest"
POLICY_RANDOM = "random"
POLICY_SNMP = "snmp"   # legacy port-counter-driven network awareness
_POLICIES = (POLICY_AWARE, POLICY_NEAREST, POLICY_RANDOM, POLICY_SNMP)

PROBE_LAYOUT_STAR = "star"
PROBE_LAYOUT_MESH = "mesh"
PROBE_LAYOUT_OPTIMIZED = "optimized"   # greedy set-cover probe routes


@dataclass(frozen=True)
class ExperimentScale:
    """Uniform shrink factor for an experiment."""

    size_scale: float       # Table I data sizes and execution times
    total_tasks: int        # tasks per run (paper: 200)
    mean_interarrival: float
    time_scale: float       # background-scenario durations

    def __post_init__(self) -> None:
        if self.size_scale <= 0 or self.time_scale <= 0:
            raise ExperimentError("scale factors must be positive")
        if self.total_tasks < 1:
            raise ExperimentError("total_tasks must be >= 1")


FULL_SCALE = ExperimentScale(size_scale=1.0, total_tasks=200, mean_interarrival=3.0, time_scale=1.0)
QUICK_SCALE = ExperimentScale(size_scale=0.2, total_tasks=36, mean_interarrival=0.8, time_scale=0.2)
SMOKE_SCALE = ExperimentScale(size_scale=0.08, total_tasks=9, mean_interarrival=0.5, time_scale=0.1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run."""

    policy: str = POLICY_AWARE
    metric: str = METRIC_DELAY
    workload: str = "serverless"
    size_class: SizeClass = SizeClass.S
    seed: int = 0
    scenario: TrafficScenario = DEFAULT_SCENARIO
    scale: ExperimentScale = QUICK_SCALE
    probing_interval: float = 0.1
    probe_layout: str = PROBE_LAYOUT_MESH
    probe_size: Optional[int] = None      # None: MTU for star, 256 B for mesh
    k: float = 0.020                      # queue -> latency conversion factor
    curve: Optional[QdepthUtilizationCurve] = None
    deadline_slack: Optional[float] = None
    scheduler_processing_delay: float = 0.5e-3
    snmp_poll_interval: float = 30.0      # legacy policy's counter-poll period
    # Device-side selection: "top_k" (paper mode 1) or "min_completion"
    # (paper mode 2: raw delay+bandwidth ranking + custom device policy).
    selection: str = "top_k"
    # Fault injection (repro.faults).  None keeps the run byte-identical to
    # the pre-fault harness.  With a plan, every device gets a hard task
    # deadline (so lost tasks resolve before the horizon) and, when
    # ``degradation`` is on, retry-with-failover plus scheduler quarantine
    # of stale-telemetry nodes.  ``degradation=False`` is the ablation: the
    # faults fire but nothing fights back.
    fault_plan: Optional[FaultPlan] = None
    degradation: bool = True
    task_retry_timeout: float = 4.0
    task_max_attempts: int = 4
    quarantine_ttl: float = 3.0

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ExperimentError(f"unknown policy {self.policy!r}")
        if self.metric not in (METRIC_DELAY, METRIC_BANDWIDTH, METRIC_RAW):
            raise ExperimentError(f"unknown metric {self.metric!r}")
        if self.selection not in ("top_k", "min_completion"):
            raise ExperimentError(f"unknown selection policy {self.selection!r}")
        if self.selection == "min_completion" and self.metric != METRIC_RAW:
            raise ExperimentError("min_completion selection requires metric='raw'")
        if self.metric == METRIC_RAW and self.policy != POLICY_AWARE:
            raise ExperimentError("only the network-aware scheduler serves raw rankings")
        if self.probe_layout not in (
            PROBE_LAYOUT_STAR, PROBE_LAYOUT_MESH, PROBE_LAYOUT_OPTIMIZED
        ):
            raise ExperimentError(f"unknown probe layout {self.probe_layout!r}")
        if self.probing_interval <= 0:
            raise ExperimentError("probing_interval must be positive")
        if self.task_retry_timeout <= 0:
            raise ExperimentError("task_retry_timeout must be positive")
        if self.task_max_attempts < 1:
            raise ExperimentError("task_max_attempts must be >= 1")
        if self.quarantine_ttl <= 0:
            raise ExperimentError("quarantine_ttl must be positive")


@dataclass
class ExperimentResult:
    """Output of one run."""

    config: ExperimentConfig
    metrics: MetricsCollector
    sim_time: float
    events_executed: int
    queries_served: int
    probe_reports: int
    tasks_completed: int
    tasks_failed: int
    faults_fired: int = 0
    tasks_retried: int = 0
    failovers: int = 0
    records_in_order: List[TaskRecord] = field(default_factory=list)
    # The run's observability hub (repro.obs.Observability) when one was
    # attached; None for plain (zero-overhead) runs.
    obs: Optional[object] = None

    def mean_completion_time(self, size_class: Optional[SizeClass] = None) -> float:
        return self.metrics.mean_completion_time(size_class)

    def mean_transfer_time(self, size_class: Optional[SizeClass] = None) -> float:
        return self.metrics.mean_transfer_time(size_class)


def _build_scheduler(
    config: ExperimentConfig,
    topo: Fig4Topology,
    streams: RandomStreams,
    server_addrs: List[int],
) -> SchedulerService:
    host = topo.network.host(topo.scheduler_name)
    kwargs = dict(processing_delay=config.scheduler_processing_delay)
    if config.policy == POLICY_AWARE:
        # Quarantine only arms for degraded fault runs: it changes ranking
        # behavior around stale telemetry, and fault-free runs must stay
        # byte-identical to the paper's scheduler.
        quarantine_ttl = (
            config.quarantine_ttl
            if config.fault_plan is not None and config.degradation
            else None
        )
        return NetworkAwareScheduler(
            host,
            server_addrs,
            link_capacity_bps=topo.fabric_rate_bps,
            k=config.k,
            default_link_delay=topo.link_delay,
            curve=config.curve,
            quarantine_ttl=quarantine_ttl,
            **kwargs,
        )
    if config.policy == POLICY_NEAREST:
        return NearestScheduler(host, server_addrs, topo.network, **kwargs)
    if config.policy == POLICY_SNMP:
        from repro.legacy import SnmpPoller, SnmpScheduler

        poller = SnmpPoller(
            host.sim, topo.network, poll_interval=config.snmp_poll_interval
        )
        poller.start()
        return SnmpScheduler(host, server_addrs, topo.network, poller, **kwargs)
    return RandomScheduler(host, server_addrs, streams.get("random_policy"), **kwargs)


def _setup_probing(
    config: ExperimentConfig,
    topo: Fig4Topology,
    collector: IntCollector,
) -> Tuple[List[ProbeSender], List[Tuple[str, str]]]:
    """Wire probe senders/responders per the configured layout; returns the
    senders plus the (src, dst) host-name pairs probed — the layout's
    coverage claim, which the telemetry-quality observatory checks observed
    stampings against.

    Probing runs identically for every policy so all runs carry the same
    measurement overhead (fairness across compared runs)."""
    net = topo.network
    scheduler_addr = topo.scheduler_addr
    senders: List[ProbeSender] = []
    pairs: List[Tuple[str, str]] = []
    if config.probe_layout == PROBE_LAYOUT_STAR:
        probe_size = config.probe_size if config.probe_size is not None else MTU
        ProbeResponder(net.host(topo.scheduler_name), collector=collector)
        for name in topo.worker_names:
            sender = ProbeSender(
                net.host(name),
                [scheduler_addr],
                interval=config.probing_interval,
                probe_size=probe_size,
            )
            senders.append(sender)
            pairs.append((name, topo.scheduler_name))
    elif config.probe_layout == PROBE_LAYOUT_OPTIMIZED:
        # Greedy set-cover probe routes (the paper's deferred route
        # optimization): full directed-port coverage with ~an order of
        # magnitude fewer probes than mesh.
        from repro.telemetry.coverage import greedy_probe_cover

        probe_size = config.probe_size if config.probe_size is not None else 256
        pairs = greedy_probe_cover(net)
        by_src: dict = {}
        for src, dst in pairs:
            by_src.setdefault(src, []).append(net.address_of(dst))
        for name in topo.node_names:
            host = net.host(name)
            if name == topo.scheduler_name:
                ProbeResponder(host, collector=collector)
            else:
                ProbeResponder(host, collector_addr=scheduler_addr)
            targets = by_src.get(name)
            if targets:
                sender = ProbeSender(
                    host, targets,
                    interval=config.probing_interval,
                    probe_size=probe_size,
                )
                senders.append(sender)
    else:  # mesh
        probe_size = config.probe_size if config.probe_size is not None else 256
        all_addrs = [net.address_of(n) for n in topo.node_names]
        for name in topo.node_names:
            host = net.host(name)
            if name == topo.scheduler_name:
                ProbeResponder(host, collector=collector)
            else:
                ProbeResponder(host, collector_addr=scheduler_addr)
            sender = ProbeSender(
                host,
                [a for a in all_addrs if a != host.addr],
                interval=config.probing_interval,
                probe_size=probe_size,
            )
            senders.append(sender)
            pairs.extend(
                (name, other) for other in topo.node_names if other != name
            )
    for sender in senders:
        sender.start()
    return senders, pairs


def reset_run_state() -> None:
    """Restart every process-global id counter (tasks, jobs, flows, packets,
    scheduler requests) so a run's output depends only on its configuration,
    never on how many runs preceded it in the process.  Called at the top of
    every experiment run; the runner's content-addressed cache and its
    serial-vs-parallel byte-identity guarantee both rest on this."""
    from repro.core.client import reset_request_ids
    from repro.edge.task import reset_ids

    reset_ids()
    reset_flow_ids()
    reset_packet_ids()
    reset_request_ids()


def run_experiment(config: ExperimentConfig, *, obs=None, profiler=None) -> ExperimentResult:
    """Run one complete experiment and return its metrics.

    ``obs`` (a :class:`repro.obs.Observability`) enables the observability
    layer for this run: sim-time metrics, structured events, a scheduler
    decision audit with ground truth attached, and task-lifecycle mirroring.
    When the hub has a :class:`~repro.obs.tracing.SpanTracer` attached,
    causal spans are assembled for tasks, sampled probes, and scheduler
    decisions.  ``profiler`` (a :class:`~repro.simnet.engine.EngineProfiler`)
    collects the per-event-type hot-path profile of this run.
    """
    reset_run_state()
    streams = run_streams(config.seed)
    sim = Simulator()
    if profiler is not None:
        sim.profiler = profiler
    if obs:
        obs.bind_sim(sim)
    topo = build_fig4_network(sim, streams)
    net = topo.network
    if obs:
        obs.attach_network(net)
        if getattr(obs, "trace", None) is not None:
            # Per-hop INT stamping spans reuse PacketTracer hop events over
            # exactly the trace-sampled probes.
            obs.trace.trace_packets(
                list(net.hosts.values()) + list(net.switches.values())
            )

    worker_names = topo.worker_names
    server_addrs = [net.address_of(n) for n in worker_names]

    # Edge servers + iperf sinks everywhere.
    for name in topo.node_names:
        UdpSink(net.host(name))
    servers: Dict[str, EdgeServer] = {
        name: EdgeServer(net.host(name)) for name in worker_names
    }

    scheduler = _build_scheduler(config, topo, streams, server_addrs)
    if isinstance(scheduler, NetworkAwareScheduler):
        collector = scheduler.collector
    else:
        # Baselines ignore telemetry but the collection runs anyway so all
        # policies pay the same probing cost.
        collector = IntCollector(net.host(topo.scheduler_name))
    _senders, probe_pairs = _setup_probing(config, topo, collector)
    telquality = getattr(obs, "telquality", None) if obs else None
    if telquality is not None:
        telquality.configure(
            layout=config.probe_layout,
            pairs=probe_pairs,
            probing_interval=config.probing_interval,
        )
    whatif = getattr(obs, "whatif", None) if obs else None
    if whatif is not None:
        whatif.configure(probing_interval=config.probing_interval)

    # Workload plan (policy-independent given the seed).
    spec = WorkloadSpec(
        workload=config.workload,
        size_class=config.size_class,
        total_tasks=config.scale.total_tasks,
        mean_interarrival=config.scale.mean_interarrival,
        scale=config.scale.size_scale,
    )
    plan = build_plan(spec, worker_names, streams.get("workload"), start_time=1.0)

    slack = config.deadline_slack
    if slack is None:
        slack = 30.0 + 500.0 * config.scale.size_scale
    horizon = plan.horizon + slack

    metrics = MetricsCollector()
    if config.selection == "min_completion":
        from repro.edge.policies import min_completion_time as selection_policy
    else:
        from repro.edge.policies import top_k as selection_policy
    device_kwargs: Dict[str, object] = {}
    if config.fault_plan is not None:
        # Lost tasks must resolve before the horizon even with degradation
        # off — the hard deadline is the slack budget itself.
        device_kwargs["task_timeout"] = slack
        if config.degradation:
            device_kwargs["retry_timeout"] = config.task_retry_timeout
            device_kwargs["max_attempts"] = config.task_max_attempts
    devices: Dict[str, EdgeDevice] = {
        name: EdgeDevice(
            net.host(name), topo.scheduler_addr, metrics,
            metric=config.metric, selection_policy=selection_policy,
            **device_kwargs,
        )
        for name in worker_names
    }
    generator = WorkloadGenerator(sim, devices, plan)
    generator.start()

    # Fault injection: armed before the run so t=0 events are schedulable.
    injector: Optional[FaultInjector] = None
    if config.fault_plan is not None:
        injector = FaultInjector(
            sim, net, config.fault_plan,
            servers=servers,
            rng=streams.get("faults"),
        )
        injector.arm()

    # Background congestion (policy-independent given the seed).
    background = BackgroundTraffic(
        sim,
        {n: net.host(n) for n in topo.node_names},
        {n: net.address_of(n) for n in topo.node_names},
        config.scenario.scaled(config.scale.time_scale),
        streams.get("background"),
        link_capacity_bps=topo.fabric_rate_bps,
        horizon=horizon,
    )
    background.start()

    # Periodic state sampling + health rules (opt-in via the hub's
    # sample_interval).  The sampler event only *reads* simulation state, so
    # enabling it cannot perturb task outcomes.
    if obs and getattr(obs, "timeseries", None) is not None:
        obs.attach_experiment_samplers(
            servers=servers,
            collector=collector,
            store=getattr(scheduler, "store", None),
            probing_interval=config.probing_interval,
        )
        sampler = PeriodicTimer(
            sim, obs.timeseries.interval, obs.sample_tick, sim
        )
        sampler.start()

    # Stop as soon as every task completed (or failed).
    def check_done() -> None:
        if generator.jobs_submitted == len(plan.jobs) and metrics.all_done():
            sim.stop()

    watchdog = PeriodicTimer(sim, 0.25, check_done)
    watchdog.start()

    sim.run(until=horizon)

    if not metrics.all_done():
        incomplete = sum(
            1 for r in metrics.records if r.result_received_at is None and not r.failed
        )
        raise ExperimentError(
            f"experiment hit the {horizon:.0f}s deadline with {incomplete} "
            f"unfinished tasks (policy={config.policy}, class={config.size_class.label})"
        )

    if obs:
        _mirror_task_lifecycle(obs, metrics.records)
        if getattr(obs, "trace", None) is not None:
            obs.trace.assemble(metrics.records)
        obs.metrics.gauge("run_sim_time_seconds").set(sim.now)
        obs.metrics.gauge("run_events_executed").set(sim.events_executed)
        obs.metrics.gauge("run_tasks_completed").set(len(metrics.completed()))
        obs.metrics.gauge("run_tasks_failed").set(len(metrics.failed()))

    return ExperimentResult(
        config=config,
        metrics=metrics,
        sim_time=sim.now,
        events_executed=sim.events_executed,
        queries_served=scheduler.queries_served,
        probe_reports=collector.reports_ingested,
        tasks_completed=len(metrics.completed()),
        tasks_failed=len(metrics.failed()),
        faults_fired=len(injector.fired) if injector is not None else 0,
        tasks_retried=sum(d.tasks_retried for d in devices.values()),
        failovers=sum(d.failovers for d in devices.values()),
        records_in_order=metrics.records,
        obs=obs if obs else None,
    )


def _mirror_task_lifecycle(obs, records: List[TaskRecord]) -> None:
    """Replay each task's recorded timeline into the structured event log.

    Timestamps come from the :class:`TaskRecord` fields measured during the
    run (the ``time=`` override), so the mirrored events interleave correctly
    with live-emitted ones on export."""
    for r in records:
        common = dict(device=r.device, server_addr=r.server_addr)
        obs.events.task_transition(
            task_id=r.task_id, state="submitted", time=r.submitted_at, **common
        )
        if r.ranking_received_at is not None:
            obs.events.task_transition(
                task_id=r.task_id, state="ranking_received",
                time=r.ranking_received_at, **common,
            )
        if r.transfer_started is not None:
            obs.events.task_transition(
                task_id=r.task_id, state="transfer_started",
                time=r.transfer_started, **common,
            )
        if r.transfer_completed is not None:
            obs.events.task_transition(
                task_id=r.task_id, state="transfer_completed",
                time=r.transfer_completed, **common,
            )
        if r.failed:
            obs.events.task_transition(
                task_id=r.task_id, state="failed", time=None, **common
            )
        elif r.result_received_at is not None:
            obs.events.task_transition(
                task_id=r.task_id, state="result_received",
                time=r.result_received_at, **common,
            )
        if r.complete:
            obs.metrics.histogram(
                "task_completion_seconds",
                buckets=(0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0),
                size_class=r.size_class.label,
            ).observe(r.completion_time)
