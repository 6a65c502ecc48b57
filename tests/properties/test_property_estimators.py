"""Property tests: estimator and ranking invariants."""

import math
from types import SimpleNamespace

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.analysis.stats import ecdf
from repro.core.estimators import BandwidthEstimator, DelayEstimator, QdepthUtilizationCurve
from repro.core.ranking import rank_by_bandwidth


knots = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=2,
    max_size=10,
).map(lambda pts: sorted({q: u for q, u in pts}.items()))


@given(knots, st.floats(min_value=-10.0, max_value=200.0, allow_nan=False))
def test_curve_output_always_in_unit_interval(pts, q):
    # Force monotone utilization by cummax.
    mono = []
    best = 0.0
    for depth, util in pts:
        best = max(best, util)
        mono.append((depth, best))
    if len(mono) < 2:
        return
    curve = QdepthUtilizationCurve(mono)
    u = curve.utilization(q)
    assert 0.0 <= u <= 1.0


@given(knots)
def test_curve_monotone_everywhere(pts):
    mono = []
    best = 0.0
    for depth, util in pts:
        best = max(best, util)
        mono.append((depth, best))
    if len(mono) < 2:
        return
    curve = QdepthUtilizationCurve(mono)
    qs = [i * 0.5 for i in range(0, 250)]
    vals = [curve.utilization(q) for q in qs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@given(
    st.lists(
        st.tuples(st.integers(0, 60), st.floats(min_value=0.0, max_value=2.0, allow_nan=False)),
        min_size=1,
        max_size=30,
    ),
    st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
)
def test_calibrated_k_nonnegative_and_finite(samples, baseline):
    k = DelayEstimator.calibrated_k(samples, baseline)
    assert k >= 0.0
    assert math.isfinite(k)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_ecdf_properties(values):
    x, f = ecdf(values)
    assert len(x) == len(f) == len(values)
    assert list(x) == sorted(values)
    assert all(0 < fi <= 1.0 for fi in f)
    assert all(b >= a for a, b in zip(f, f[1:]))
    assert f[-1] == 1.0


class _Link:
    """A link state whose windowed max queue depth is fixed."""

    def __init__(self, depth):
        self.depth = depth

    def qdepth(self, now, staleness):
        return self.depth


class _Store:
    """Stub telemetry store: each candidate's planned path is its links'
    qdepth readings."""

    sim = SimpleNamespace(now=0.0)
    staleness = None

    def __init__(self, readings):
        self.plans = {node: [(_Link(q), True) for q in qs] for node, qs in readings.items()}

    def plan(self, src, dst):
        return self.plans[dst]


@given(
    knots,
    st.dictionaries(
        st.tuples(st.just("host"), st.integers(0, 20)),
        st.lists(st.integers(0, 60), min_size=1, max_size=6),
        min_size=1, max_size=10,
    ),
    st.floats(min_value=1e3, max_value=1e9, allow_nan=False),
)
def test_uniform_capacity_bandwidth_ranking_is_bottleneck_qdepth_order(pts, readings, capacity):
    """On a uniform-capacity fabric, min over links of C*(1 - u(q)) is
    C*(1 - u(max q)) for any monotone curve u, so rank_by_bandwidth orders
    candidates by their bottleneck max-qdepth whatever the calibration."""
    assume(len(pts) >= 2)
    mono, best = [], 0.0
    for depth, util in pts:
        best = max(best, util)
        mono.append((depth, best))
    # The same knot depths with utilization strictly rising between
    # (-1, 0) and (1000, 1), in steps of at least 1 / (2 * (len + 2)).
    strict = [(-1.0, 0.0)] + [
        (depth, (i + 1 + util / 2) / (len(pts) + 2)) for i, (depth, util) in enumerate(pts)
    ] + [(1000.0, 1.0)]
    candidates = sorted(readings)

    def ranked(curve):
        estimator = BandwidthEstimator(_Store(readings), link_capacity_bps=capacity, curve=curve)
        return [node for node, _bw in rank_by_bandwidth(estimator, ("sched", 0), candidates)]

    def by_bottleneck(curve):
        return sorted(candidates, key=lambda n: (
            -capacity * (1.0 - curve.utilization(max(readings[n]))), n
        ))

    curve = QdepthUtilizationCurve(mono)
    assert ranked(curve) == by_bottleneck(curve)
    curve = QdepthUtilizationCurve(strict)
    assert ranked(curve) == by_bottleneck(curve) == sorted(
        candidates, key=lambda n: (max(readings[n]), n)
    )
