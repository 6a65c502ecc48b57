"""The runner tests' shared grids.

:func:`smoke_grid` is four cells (aware / nearest x class VS / S, seed 3,
smoke scale), which tests run serially through the session's
``cell_runner`` (``tests/conftest.py``), so each observe mapping's grid is
simulated once.  :func:`fig5_grid_specs` is the whole Fig. 5 grid at smoke
scale, every size class x every policy.
"""

from dataclasses import replace

from repro.experiments.comparison import ALL_CLASSES, DEFAULT_POLICIES, FIG5_CONFIG
from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig
from repro.runner import RunSpec, canonical_json, expand_grid


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


def fig5_grid_specs():
    """The Fig. 5 grid (serverless workload, delay ranking) at smoke scale:
    12 cells, every size class x every policy, seed 0."""
    base = RunSpec.from_config(replace(FIG5_CONFIG, scale=SMOKE_SCALE, seed=0))
    return expand_grid(base, {
        "size_class": [c.label for c in ALL_CLASSES],
        "policy": list(DEFAULT_POLICIES),
    })
