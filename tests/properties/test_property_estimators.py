"""Property tests: estimator and ranking invariants."""

import math
from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import ecdf
from repro.core.estimators import (
    BandwidthEstimator, DelayEstimator, QdepthUtilizationCurve, walk,
)
from repro.core.ranking import rank_by_bandwidth
from repro.core.scheduler import STALE_BW_FACTOR
from repro.core.telemetry_store import LinkState, PathTree
from repro.errors import SchedulingError
from repro.telemetry.records import host_node, switch_node
from tests.properties.test_property_inference import _fed_scheduler, _fig4_mesh_reports


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
    """Stub telemetry store: each candidate's path is a chain of its own
    links, one per qdepth reading, sharing none with another candidate."""

    sim = SimpleNamespace(now=0.0)
    staleness = None

    def __init__(self, readings):
        self.readings = readings

    def tree(self, src, candidates):
        edges, slots = [], []
        for node in candidates:
            slot = 0
            for q in self.readings[node]:
                edges.append((_Link(q), True, slot))
                slot = len(edges)
            slots.append(slot)
        return PathTree(tuple(edges), tuple(slots))


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


# -- the prefix-tree walk against a per-path reference ------------------------

_FIG4_SERVERS = (1, 2, 3, 4, 5, 7, 8)
# Fig. 4's switch ids, and one host the mesh never reports: no path.
_FIG4_SWITCHES = range(1, 13)
_UNKNOWN_HOST = host_node(99)


def _reference_prices(store, delay, bandwidth, origin, candidates, allow_stale=False):
    """Per candidate, its own inferred path priced link by link with the
    ``LinkState`` rules: ``(delay, throughput)``, ``(inf, 0.0)`` with no
    path and a throughput of 0.0 for a path of no links."""
    now, staleness = store.sim.now, store.staleness
    prices = []
    for node in candidates:
        try:
            path = store.topology.path(origin, node)
        except SchedulingError:
            prices.append((math.inf, 0.0))
            continue
        links = queues = 0.0
        available = []
        for u, v in zip(path, path[1:]):
            state = store.link_state(u, v) or LinkState()
            links += state.delay(now, staleness, delay.default_link_delay, allow_stale)
            qdepth = state.qdepth(now, staleness)
            if u[0] == "sw" and qdepth >= delay.qdepth_floor:
                queues += delay.k * qdepth
            available.append(
                bandwidth.link_capacity_bps * (1.0 - bandwidth.curve.utilization(qdepth))
            )
        prices.append((links + queues, min(available) if available else 0.0))
    return prices


def _reference_rank(scheduler, requester, metric):
    """``rank()`` from :func:`_reference_prices`: the quarantine split, the
    stale penalty and factor, and the sort keys of the rankers."""
    store = scheduler.store
    delay, bandwidth = scheduler.delay_estimator, scheduler.bandwidth_estimator
    origin = host_node(requester)
    candidates = [host_node(a) for a in scheduler.candidates_for(requester)]
    if metric == "raw":
        ordered = sorted(candidates)
        prices = _reference_prices(store, delay, bandwidth, origin, ordered)
        return [(node[1], price) for node, price in zip(ordered, prices)]
    stale = [n for n in candidates if (store.node_age(n) or 0.0) > scheduler.quarantine_ttl]
    fresh = [n for n in candidates if n not in stale]
    fresh_prices = _reference_prices(store, delay, bandwidth, origin, fresh)
    stale_prices = _reference_prices(store, delay, bandwidth, origin, stale, allow_stale=True)
    if metric == "delay":
        fresh_values = [price[0] for price in fresh_prices]
        stale_values = [price[0] + scheduler.stale_penalty for price in stale_prices]
        key = lambda item: (item[1], item[0])
    else:
        fresh_values = [price[1] for price in fresh_prices]
        stale_values = [price[1] * STALE_BW_FACTOR for price in stale_prices]
        key = lambda item: (-item[1], item[0])
    ranked = sorted(zip(fresh, fresh_values), key=key) + sorted(zip(stale, stale_values), key=key)
    return [(node[1], value) for node, value in ranked]


@st.composite
def _fig4_store_states(draw):
    """A network-aware scheduler (quarantine TTL 0.5 s) whose store learned
    a drawn part of the Fig. 4 mesh, maybe plus edges no report carried (no
    state), with every link's readings and every node's last sighting
    redrawn: fresh, stale or never measured; queue depths on both sides of
    the noise floor."""
    sim, scheduler = _fed_scheduler(0.5)
    store = scheduler.store
    reports = _fig4_mesh_reports()
    for i in draw(st.lists(st.integers(0, len(reports) - 1), min_size=1, max_size=40)):
        store.update(reports[i])
    for switch, host in draw(st.lists(
        st.tuples(st.sampled_from(_FIG4_SWITCHES), st.sampled_from(_FIG4_SERVERS)),
        max_size=2,
    )):
        store.topology.observe_path([switch_node(switch), host_node(host)])
    now = draw(st.floats(min_value=3.0, max_value=6.0))
    sim.run(until=now)
    ages = st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5])  # staleness horizon: 2 s
    for link in sorted(store._links):
        state = store._links[link]
        state.latency_ewma = draw(st.none() | st.floats(min_value=1e-3, max_value=0.05))
        state.latency_updated_at = now - draw(ages)
        state.qdepth_readings.clear()
        if draw(st.booleans()):
            state.qdepth_readings.append((now, draw(st.integers(0, 8))))
        state.qdepth_updated_at = now - draw(ages)
    for node in sorted(store._node_seen):
        store._node_seen[node] = now - draw(st.sampled_from([0.1, 1.0]))
    return scheduler


@given(_fig4_store_states(), st.sampled_from(_FIG4_SERVERS), st.data())
@settings(max_examples=60, deadline=None)
def test_tree_walk_equals_per_path_reference(scheduler, requester, data):
    """Every metric, fresh and stale, reads exactly what pricing each
    candidate's own path link by link reads — to the bit (``==`` on
    floats)."""
    store = scheduler.store
    delay, bandwidth = scheduler.delay_estimator, scheduler.bandwidth_estimator
    origin = host_node(requester)
    candidates = data.draw(st.permutations(
        [host_node(a) for a in _FIG4_SERVERS] + [_UNKNOWN_HOST]
    ))
    tree = store.tree(origin, candidates)
    for allow_stale in (False, True):
        expected = _reference_prices(store, delay, bandwidth, origin, candidates, allow_stale)
        delays, throughputs = walk(
            tree, store, delay=delay, bandwidth=bandwidth, allow_stale=allow_stale
        )
        assert list(zip(delays, throughputs)) == expected
        assert delay.delays(origin, candidates, allow_stale=allow_stale) == delays
    assert bandwidth.throughputs(origin, candidates) == throughputs
    for metric in ("delay", "bandwidth", "raw"):
        assert scheduler.rank(requester, metric) == _reference_rank(scheduler, requester, metric)
