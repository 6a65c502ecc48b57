"""Run specs: canonical form, content hashing, and round trips."""

import dataclasses
import json

import pytest

from repro import observers
from repro.errors import ExperimentError
from repro.experiments.harness import QUICK_SCALE, SMOKE_SCALE, ExperimentConfig
from repro.faults import builtin_plan
from repro.runner.spec import (
    CalibrationSpec,
    RunSpec,
    SPEC_KINDS,
    canonical_json,
    content_hash,
    spec_from_dict,
)


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_key_order_does_not_matter(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestRunSpecRoundTrips:
    def test_dict_round_trip(self):
        spec = RunSpec(policy="nearest", seed=5)
        again = spec_from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_dict_round_trip_survives_json(self):
        spec = RunSpec(curve_knots=((0.0, 0.0), (1.0, 40.0)), probe_size=256)
        again = spec_from_dict(json.loads(spec.canonical_json()))
        assert again == spec

    def test_config_round_trip_is_exact(self):
        plan = builtin_plan("link-flap")
        config = ExperimentConfig(
            policy="nearest",
            workload="distributed",
            metric="bandwidth",
            scale=QUICK_SCALE,
            seed=9,
            probing_interval=5.0,
            fault_plan=plan,
            degradation=False,
        )
        spec = RunSpec.from_config(config)
        assert RunSpec.from_config(spec.to_config()) == spec

    def test_unknown_size_class_rejected(self):
        with pytest.raises(ExperimentError):
            RunSpec(size_class="XXL")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError):
            spec_from_dict({"kind": "mystery"})

    def test_registry_covers_both_kinds(self):
        assert set(SPEC_KINDS) == {"experiment", "calibration"}


# One changed value per RunSpec field; the test below asserts the table is
# exhaustive, so adding a spec field without deciding its hash behavior
# fails loudly here.
_FIELD_CHANGES = {
    "policy": "nearest",
    "metric": "bandwidth",
    "workload": "distributed",
    "size_class": "M",
    "seed": 99,
    "size_scale": 0.9,
    "total_tasks": 5,
    "mean_interarrival": 2.5,
    "time_scale": 0.9,
    "scenario_json": None,  # handled specially below
    "probing_interval": 7.0,
    "probe_layout": "collector",
    "probe_size": 512,
    "k": 0.5,
    "selection": "all",
    "curve_knots": ((0.0, 0.0), (1.0, 99.0)),
    "deadline_slack": 3.0,
    "scheduler_processing_delay": 0.002,
    "snmp_poll_interval": 12.0,
    "fault_plan_json": None,  # handled specially below
    "degradation": False,
    "task_retry_timeout": 11.0,
    "task_max_attempts": 7,
    "quarantine_ttl": 13.0,
    "obs_run_json": canonical_json({"figure": "fig5"}),
    # Observers are in the hash on purpose: an observed run must never alias
    # a plain run's cache entry.  Covered per registry entry below.
    "observe": None,
}

# One stamping per registered observer, so each one's hash effect is its
# own test case.
_OBSERVER_CHANGES = {
    name: {name: 0.5 if name == "sample_interval" else True}
    for name in observers.REGISTRY
}


class TestHashInvalidation:
    """Satellite: changing *any* RunSpec field must change the hash."""

    def test_change_table_is_exhaustive(self):
        assert set(_FIELD_CHANGES) == {
            f.name for f in dataclasses.fields(RunSpec)
        }

    @pytest.mark.parametrize(
        "field",
        sorted(k for k, v in _FIELD_CHANGES.items() if v is not None)
        + sorted(_OBSERVER_CHANGES),
    )
    def test_changing_field_changes_hash(self, field):
        base = RunSpec()
        if field in _OBSERVER_CHANGES:
            changed = base.with_(observe=canonical_json(_OBSERVER_CHANGES[field]))
        else:
            changed = base.with_(**{field: _FIELD_CHANGES[field]})
        assert changed.content_hash() != base.content_hash()

    def test_changing_scenario_contents_changes_hash(self):
        base = RunSpec()
        scenario = json.loads(base.scenario_json)
        scenario["slots"] = scenario["slots"] + 1
        changed = base.with_(scenario_json=canonical_json(scenario))
        assert changed.content_hash() != base.content_hash()

    def test_changing_fault_plan_contents_changes_hash(self):
        plan = builtin_plan("link-flap")
        base = RunSpec(fault_plan_json=canonical_json(plan.to_dict()))
        edited = plan.to_dict()
        edited["events"][0]["at"] = edited["events"][0].get("at", 0.0) + 1.0
        changed = base.with_(fault_plan_json=canonical_json(edited))
        assert changed.content_hash() != base.content_hash()
        # ... and adding any plan at all changes it from the no-fault spec.
        assert base.content_hash() != RunSpec().content_hash()

    def test_obs_run_does_not_alias_plain_run(self):
        base = RunSpec()
        obs = base.with_(obs_run_json=canonical_json({"figure": "fig5"}))
        assert obs.content_hash() != base.content_hash()


class TestPairingKey:
    def test_policy_and_knobs_do_not_perturb_pairing(self):
        base = RunSpec(policy="aware", seed=4)
        for change in (
            {"policy": "nearest"},
            {"metric": "bandwidth"},
            {"k": 0.5},
            {"probing_interval": 30.0},
            {"obs_run_json": canonical_json({"x": 1})},
        ):
            assert base.with_(**change).pairing_key() == base.pairing_key()

    def test_workload_identity_does_perturb_pairing(self):
        base = RunSpec(policy="aware", seed=4)
        for change in (
            {"seed": 5},
            {"size_class": "M"},
            {"workload": "distributed"},
            {"total_tasks": 99},
        ):
            assert base.with_(**change).pairing_key() != base.pairing_key()


class TestCalibrationSpec:
    def test_round_trip_and_dispatch(self):
        spec = CalibrationSpec(utilization=0.5, duration=12.0, seed=2)
        again = spec_from_dict(json.loads(spec.canonical_json()))
        assert again == spec

    def test_every_field_changes_hash(self):
        base = CalibrationSpec()
        changes = {
            "utilization": 0.7,
            "duration": 17.0,
            "rate_bps": 10e6,
            "link_delay": 0.033,
            "probing_interval": 0.4,
            "seed": 6,
            "observe": canonical_json({"profile": True}),
        }
        assert set(changes) == {f.name for f in dataclasses.fields(CalibrationSpec)}
        for name, value in changes.items():
            assert (
                base.with_(**{name: value}).content_hash() != base.content_hash()
            ), name

    def test_kinds_do_not_collide(self):
        # Same field values, different kind tag -> different hash space.
        assert RunSpec().content_hash() != CalibrationSpec().content_hash()


class TestFromConfigDefaults:
    def test_smoke_config_spec_matches_defaults(self):
        spec = RunSpec.from_config(ExperimentConfig(scale=SMOKE_SCALE))
        assert spec.total_tasks == SMOKE_SCALE.total_tasks
        assert set(spec.to_dict()) == {"kind"} | {
            f.name for f in dataclasses.fields(RunSpec)
        }


class TestObserveField:
    def test_observe_is_canonical_and_validated(self):
        assert RunSpec(observe={"whatif": True, "trace": 1}) == RunSpec(
            observe='{"trace": true, "whatif": true}'
        )
        assert RunSpec(observe={"trace": 1}).observe == '{"trace":true}'
        assert RunSpec(observe={"trace": False}) == RunSpec(observe={}) == RunSpec()
        for observe, match in (({"telepathy": True}, "unknown observer"),
                               ({"sample_interval": 0}, "must be positive")):
            with pytest.raises(ExperimentError, match=match):
                RunSpec(observe=observe)
        with pytest.raises(ExperimentError, match="do not apply"):
            CalibrationSpec(observe={"trace": True})

    def test_stamping_combines_per_registry_entry(self):
        # mem_profile implies profile; a sampled spec keeps its interval;
        # switches OR; a calibration spec drops what it cannot carry.
        spec = RunSpec().instrumented(mem_profile=True, sample_interval=0.5)
        assert spec.observers() == {
            "profile": True, "mem_profile": True, "sample_interval": 0.5,
        }
        assert spec.instrumented({"sample_interval": 2.0, "profile": False}) is spec
        calib = CalibrationSpec().instrumented(trace=True, mem_profile=True)
        assert calib.observers() == {"profile": True, "mem_profile": True}
