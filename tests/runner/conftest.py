"""The runner tests' shared smoke grid, simulated once per observer set.

Four cells (aware / nearest x class VS / S, seed 3, smoke scale); the
``observed_grid`` fixture runs them serially under one observe mapping the
first time a test asks and hands every later caller the same results.
"""

import pytest

from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig
from repro.runner import Runner, RunSpec, canonical_json, expand_grid


def smoke_grid(labeled=False):
    """The four cells; ``labeled`` gives each the labels an observed run
    synthesises, so a plain run exports comparable records."""
    base = RunSpec.from_config(ExperimentConfig(scale=SMOKE_SCALE, seed=3))
    cells = expand_grid(base, {"policy": ["aware", "nearest"], "size_class": ["VS", "S"]})
    return [
        spec.with_(obs_run_json=canonical_json(
            {"policy": spec.policy, "size_class": spec.size_class, "seed": spec.seed}
        )) if labeled else spec
        for spec in cells
    ]


@pytest.fixture(scope="session")
def observed_grid():
    """``observed_grid(observe=None, labeled=False)``: the serial results of
    :func:`smoke_grid` under ``observe``, computed once per session."""
    results = {}

    def run(observe=None, labeled=False):
        key = (canonical_json(observe or {}), labeled)
        if key not in results:
            results[key] = Runner(jobs=1, observe=observe).run(smoke_grid(labeled))
        return results[key]

    return run
