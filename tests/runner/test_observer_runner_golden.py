"""Golden digests of one smoke cell through the CLI -> Runner -> hub path.

``test_plain_export_golden.py`` runs plain and ``test_observed_export_golden.py``
builds its hub by hand; neither goes through the observer flags the way a
command does.  Here one smoke ``RunSpec`` cell is run by the Runner that
``repro compare`` builds from its own flags (``jobs=1``, in-process), once
plain, once per observer flag alone and once with every flag, and the
sha256 of ``payload_json()`` is compared with the digest recorded in
``tests/goldens.json`` under ``observer-runner/<case>`` (flags, channels
and cell in ``tests/goldens.py``).

The profiler cases keep their output in provenance, so their payload must
equal the plain one; the trace-only case is the one observed payload with
no ``obs_records`` key.
"""

import pytest

from tests import goldens

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("case", sorted(goldens.RUNNER_CASES))
def test_runner_payload_matches_golden_digest(case, cell_runner):
    _flags, has_obs, has_trace = goldens.RUNNER_CASES[case]
    values, result = goldens.CELLS[f"observer-runner/{case}"](cell_runner)
    assert result.ok
    assert ("obs_records" in result.payload) == has_obs
    assert ("trace_records" in result.payload) == has_trace
    assert values == goldens.recorded(f"observer-runner/{case}")
