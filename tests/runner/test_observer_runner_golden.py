"""Golden digests of one smoke cell through the CLI -> Runner -> hub path.

``test_plain_export_golden.py`` runs plain and ``test_observed_export_golden.py``
builds its hub by hand; neither goes through the observer flags the way a
command does.  Here one smoke ``RunSpec`` cell is run by the Runner that
``repro compare`` builds from its own flags (``jobs=1``, in-process), once
plain, once per observer flag alone and once with every flag, and the
sha256 of ``payload_json()`` is compared with digests recorded before the
observer plumbing was folded into one registry.

The profiler cases keep their output in provenance, so their payload must
equal the plain one; the trace-only case is the one observed payload with
no ``obs_records`` key.  Same toolchain caveat as the other goldens.
"""

import dataclasses
import hashlib

import pytest

from repro.cli import _runner_from_args, build_parser
from repro.edge.task import SizeClass
from repro.experiments.comparison import FIG5_CONFIG
from repro.experiments.harness import SMOKE_SCALE
from repro.runner import RunSpec

pytestmark = pytest.mark.slow

_CELL = dataclasses.replace(
    FIG5_CONFIG, scale=SMOKE_SCALE, seed=41, size_class=SizeClass.VS,
    policy="aware",
)

_PLAIN = "50750c99454cfeca30efe7bb57a04b48c193afd5fe45242c18c89e2029279a99"

# case -> (flags, sha256 of payload_json(), payload has obs_records,
# payload has trace_records).
CASES = {
    "plain": ([], _PLAIN, False, False),
    "trace": (
        ["--trace-out", "{tmp}/t.jsonl"],
        "25c4cb354c28b8398a77b14e175c330608b7c26a922429de044254667799ea7e",
        False, True,
    ),
    "profile": (["--profile"], _PLAIN, False, False),
    "mem_profile": (["--mem-profile"], _PLAIN, False, False),
    "sample_interval": (
        ["--sample-interval", "0.1"],
        "3f89816ba1dd5a730acc2f45c78a90c883edb918336f1d0de1df268fd667b2bf",
        True, False,
    ),
    "telquality": (
        ["--telquality"],
        "737e76bb6e0bac427e464f9ce099b77c47aa56099ca8f5715e2b61ed81768670",
        True, False,
    ),
    "whatif": (
        ["--whatif"],
        "814984714dd4985d06a7f780ee17a9b2fafe91643cb9835e0835ed85a6016df6",
        True, False,
    ),
    "all": (
        ["--trace-out", "{tmp}/t.jsonl", "--profile", "--mem-profile",
         "--sample-interval", "0.1", "--telquality", "--whatif"],
        "1d2c1114d3eb5f5315fa5f30c2c951860621e472e90c3082a92fae87b06f974e",
        True, True,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_runner_payload_matches_golden_digest(case, tmp_path):
    flags, digest, has_obs, has_trace = CASES[case]
    args = build_parser().parse_args(
        ["compare", *(flag.format(tmp=tmp_path) for flag in flags)]
    )
    runner = _runner_from_args(args)
    assert runner.jobs == 1
    [result] = runner.run([RunSpec.from_config(_CELL)])
    assert result.ok
    assert ("obs_records" in result.payload) == has_obs
    assert ("trace_records" in result.payload) == has_trace
    got = hashlib.sha256(result.payload_json().encode("utf-8")).hexdigest()
    assert got == digest
