"""Observer determinism, parametrised over the observer registry.

Each registry entry runs alone on the shared smoke grid and must give
``jobs=4`` payloads byte-identical to serial ones, survive a cache round
trip, change the spec hash (not the pairing key) idempotently, put its
output on its declared channel only (its records appended last), leave
task outcomes untouched, and, when it rides on ``obs_records`` without
events of its own, leave the plain labelled export once its records are
filtered out (the CI ``grep -v | cmp`` check).  Observer-specific checks
stay beside each observer.
"""

import json

import pytest

from repro.observers import OBS_RECORDS, PROVENANCE, REGISTRY, TRACE_RECORDS
from repro.runner import ResultCache, Runner

from .conftest import smoke_grid

pytestmark = pytest.mark.slow

NAMES = list(REGISTRY)
CHANNELS = (OBS_RECORDS, TRACE_RECORDS)


def _observe(name):
    # Every observer but the sampler is a switch.
    return {name: 0.5 if name == "sample_interval" else True}


def _grid(name):
    # A cell runs several times slower under tracemalloc, and its payload is
    # the plain one (golden observer-runner/mem_profile): one cell will do.
    return smoke_grid()[:1] if name == "mem_profile" else smoke_grid()


@pytest.mark.parametrize("name", NAMES)
def test_jobs4_matches_serial(name, cell_runner):
    specs = _grid(name)
    serial = cell_runner(_observe(name)).run(specs)
    parallel = Runner(jobs=4, observe=_observe(name)).run(specs)
    assert len(parallel) == len(serial) == len(specs)
    for s, p in zip(serial, parallel):
        assert s.payload_json() == p.payload_json(), s.spec.label()


@pytest.mark.parametrize("name", NAMES)
def test_cache_round_trip(name, cell_runner, tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = smoke_grid()[0]
    first = Runner(jobs=1, cache=cache, observe=_observe(name)).run([spec])[0]
    hit = Runner(jobs=1, cache=cache, observe=_observe(name)).run([spec])[0]
    assert hit.from_cache and not first.from_cache
    assert hit.payload_json() == first.payload_json()
    assert hit.payload_json() == cell_runner(_observe(name)).run([spec])[0].payload_json()
    assert hit.profile() == first.profile()


@pytest.mark.parametrize("name", NAMES)
def test_stamping_changes_hash_once(name):
    spec = smoke_grid()[0]
    observed = spec.instrumented(_observe(name))
    assert observed.content_hash() != spec.content_hash()
    assert observed.pairing_key() == spec.pairing_key()
    assert observed.instrumented(_observe(name)) is observed


@pytest.mark.parametrize("name", NAMES)
def test_output_on_declared_channel(name, cell_runner):
    entry = REGISTRY[name]
    for result in cell_runner(_observe(name)).run(_grid(name)):
        assert {c for c in CHANNELS if c in result.payload} == (
            {entry.channel} & set(CHANNELS)
        )
        assert (result.profile() is not None) == (entry.channel == PROVENANCE)
        if entry.channel == OBS_RECORDS:
            kinds = [r["kind"] for r in result.obs_records()]
            own = [k in entry.record_kinds for k in kinds]
            # Present, and appended after every pre-existing record.
            assert any(own)
            assert own == sorted(own), result.spec.label()
        elif entry.channel == TRACE_RECORDS:
            records = result.trace_records()
            assert records
            assert {r["kind"] for r in records} == set(entry.record_kinds)
            assert all("run" in r for r in records)


def test_plain_run_carries_no_observer_output(cell_runner):
    for result in cell_runner().run(smoke_grid()):
        assert not set(CHANNELS) & set(json.loads(result.payload_json()))
        assert result.obs_records() == result.trace_records() == []
        assert result.profile() is None


@pytest.mark.parametrize("name", NAMES)
def test_outcomes_unperturbed(name, cell_runner):
    entry = REGISTRY[name]
    observed_results = cell_runner(_observe(name)).run(_grid(name))
    for observed, plain in zip(observed_results, cell_runner().run(_grid(name))):
        observed_payload = json.loads(observed.payload_json())
        plain_payload = json.loads(plain.payload_json())
        observed_payload.pop(entry.channel, None)
        events = observed_payload.pop("events_executed")
        plain_events = plain_payload.pop("events_executed")
        assert observed_payload == plain_payload, observed.spec.label()
        if entry.adds_events:
            assert events > plain_events
        else:
            assert events == plain_events


@pytest.mark.parametrize("name", [
    name for name, entry in REGISTRY.items()
    if entry.channel == OBS_RECORDS and not entry.adds_events
])
def test_filtered_export_equals_plain(name, cell_runner):
    entry = REGISTRY[name]
    plain = cell_runner().run(smoke_grid(labeled=True))
    for observed, reference in zip(cell_runner(_observe(name)).run(smoke_grid()), plain):
        filtered = [
            r for r in observed.obs_records() if r["kind"] not in entry.record_kinds
        ]
        assert filtered == reference.obs_records(), observed.spec.label()
