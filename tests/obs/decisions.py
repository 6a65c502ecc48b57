"""Decision records as the scheduler hands them to the decision audit, and a
hub whose sampler tick reads them, for the observer tests."""

from types import SimpleNamespace

from repro.core.scheduler import DecisionRecord
from repro.obs import Observability
from repro.telemetry.records import switch_node


def delay_decision(candidates, *, time=1.0, requester=100, chosen=1, ages=None):
    """A delay decision record.  ``ages`` is, per candidate, the telemetry
    ages of its consulted hops (``None`` for an unknown one), or ``None``
    for a policy that consults no telemetry (the baselines)."""
    hops = None if ages is None else [
        [(switch_node(i), switch_node(i + 1), age) for i, age in enumerate(cand_ages)]
        for cand_ages in ages
    ]
    return DecisionRecord(time, requester, "delay", chosen, list(candidates), hops)


def sampled_hub(sim, **observe):
    """A hub on ``sim`` with the experiment samplers attached (no servers,
    collector or store, no health rules); drive one tick with
    ``hub.sample_tick(sim)``."""
    hub = Observability(sample_interval=0.1, health_rules=[], **observe)
    hub.bind_sim(sim)
    hub.attach_experiment_samplers(SimpleNamespace(
        sim=sim, config=SimpleNamespace(probing_interval=0.1),
        servers={}, collector=None, store=None,
    ))
    return hub


def points(hub, name):
    """The values a sampled series holds, oldest first."""
    series = hub.timeseries.series(name)
    return [] if series is None else [value for _t, value in series.points]
