"""Delay/bandwidth estimators and the queue<->utilization curve."""

import pytest

from repro.core.estimators import (
    DEFAULT_K,
    BandwidthEstimator,
    DelayEstimator,
    QdepthUtilizationCurve,
)
from repro.core.telemetry_store import TelemetryStore
from repro.errors import SchedulingError
from repro.p4.headers import IntHopRecord
from repro.telemetry.records import ProbeReport, host_node, switch_node
from repro.units import mbps
from tests.properties.test_property_inference import _ReferenceBandwidthEstimator

H = host_node
S = switch_node


def _feed(store, *, qdepths=(0, 0), latencies=(0.010, 0.010), final=0.010):
    """Install a 2-switch path h1 -> s1 -> s2 -> h2 with given telemetry."""
    records = [
        IntHopRecord(switch_id=1, egress_port=1, max_qdepth=qdepths[0],
                     link_latency=latencies[0], egress_ts=0.0),
        IntHopRecord(switch_id=2, egress_port=1, max_qdepth=qdepths[1],
                     link_latency=latencies[1], egress_ts=0.0),
    ]
    store.update(ProbeReport(
        probe_src=1, probe_dst=2, seq=0, sent_at=0.0, received_at=0.0,
        records=records, final_link_latency=final,
    ))


@pytest.fixture
def store(sim):
    return TelemetryStore(sim)


class TestDelayEstimator:
    def test_uncongested_path_sums_link_delays(self, sim, store):
        _feed(store)
        est = DelayEstimator(store, k=0.020)
        # 3 links x 10 ms, no queueing.
        assert est.delay_between(H(1), H(2)) == pytest.approx(0.030)

    def test_queue_term_added_per_hop(self, sim, store):
        _feed(store, qdepths=(5, 4))
        est = DelayEstimator(store, k=0.020)
        # 30 ms links + k * (5 + 4) = 30 + 180 ms (both above the floor).
        assert est.delay_between(H(1), H(2)) == pytest.approx(0.030 + 0.020 * 9)

    def test_qdepth_noise_floor_suppresses_blips(self, sim, store):
        """Readings below the floor (Fig. 3's 'uncongested links still show
        a few packets of queue') contribute nothing."""
        _feed(store, qdepths=(2, 1))
        est = DelayEstimator(store, k=0.020, qdepth_floor=3)
        assert est.delay_between(H(1), H(2)) == pytest.approx(0.030)

    def test_qdepth_floor_zero_counts_everything(self, sim, store):
        _feed(store, qdepths=(2, 1))
        est = DelayEstimator(store, k=0.020, qdepth_floor=0)
        assert est.delay_between(H(1), H(2)) == pytest.approx(0.030 + 0.020 * 3)

    def test_negative_floor_rejected(self, sim, store):
        with pytest.raises(ValueError):
            DelayEstimator(store, qdepth_floor=-1)

    def test_k_zero_ignores_queues(self, sim, store):
        _feed(store, qdepths=(50, 50))
        est = DelayEstimator(store, k=0.0)
        assert est.delay_between(H(1), H(2)) == pytest.approx(0.030)

    def test_default_link_delay_for_unmeasured(self, sim, store):
        _feed(store, latencies=(None, 0.010))
        est = DelayEstimator(store, k=0.020, default_link_delay=0.007)
        assert est.delay_between(H(1), H(2)) == pytest.approx(0.007 + 0.010 + 0.010)

    def test_plan_missing_a_state_is_not_cached(self, sim, store):
        """An edge the store has no state for reads as never measured; the
        first report that measures it counts at once, although the
        topology does not grow and so drops no cached plan."""
        store.topology.observe_path([H(1), S(1), S(2), H(2)])
        est = DelayEstimator(store, k=0.020, default_link_delay=0.007)
        assert est.delay_between(H(1), H(2)) == pytest.approx(3 * 0.007)
        version = store.topology.version
        _feed(store)
        assert store.topology.version == version
        assert est.delay_between(H(1), H(2)) == pytest.approx(0.030)

    def test_negative_k_rejected(self, sim, store):
        with pytest.raises(ValueError):
            DelayEstimator(store, k=-1.0)

    def test_unknown_path_raises(self, sim, store):
        _feed(store)
        est = DelayEstimator(store)
        with pytest.raises(SchedulingError):
            est.delay_between(H(1), H(99))

    def test_calibrated_k_recovers_slope(self):
        baseline = 0.040
        k_true = 0.015
        samples = [(q, baseline + k_true * q) for q in (0, 2, 5, 10, 20, 30)]
        k = DelayEstimator.calibrated_k(samples, baseline)
        assert k == pytest.approx(k_true, rel=1e-6)

    def test_calibrated_k_fallback_without_signal(self):
        assert DelayEstimator.calibrated_k([(0, 0.04)], 0.04) == DEFAULT_K

    def test_calibrated_k_never_negative(self):
        samples = [(10, 0.01)]  # delay *below* baseline
        assert DelayEstimator.calibrated_k(samples, 0.04) == 0.0


class TestCurve:
    def test_default_curve_monotone(self):
        curve = QdepthUtilizationCurve()
        values = [curve.utilization(q) for q in range(0, 80)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_endpoints_clamped(self):
        curve = QdepthUtilizationCurve()
        assert curve.utilization(0) == 0.0
        assert curve.utilization(10_000) == 1.0

    def test_interpolation_between_knots(self):
        curve = QdepthUtilizationCurve([(0, 0.0), (10, 1.0)])
        assert curve.utilization(5) == pytest.approx(0.5)

    def test_fig3_shape(self):
        """Below ~5 packets the default curve says <= 50 % utilization; at 30
        packets it says heavy congestion — the Fig. 3 relationship."""
        curve = QdepthUtilizationCurve()
        assert curve.utilization(4) < 0.5
        assert curve.utilization(30) >= 0.9

    def test_from_calibration(self):
        pairs = [(0.0, 0.5), (0.5, 4.0), (0.9, 25.0), (1.0, 40.0)]
        curve = QdepthUtilizationCurve.from_calibration(pairs)
        assert curve.utilization(0.5) == pytest.approx(0.0, abs=0.1)
        assert curve.utilization(40.0) == pytest.approx(1.0)
        assert curve.utilization(25.0) == pytest.approx(0.9, abs=0.05)

    def test_from_calibration_handles_nonmonotone_noise(self):
        # Measured queue dips at higher utilization: cummax smooths it.
        pairs = [(0.2, 3.0), (0.4, 2.0), (0.8, 10.0)]
        curve = QdepthUtilizationCurve.from_calibration(pairs)
        vals = [curve.utilization(q) for q in (0, 2, 3, 5, 10, 20)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_table_is_the_rule_at_every_integer_depth(self):
        curve = QdepthUtilizationCurve()
        last = int(QdepthUtilizationCurve.DEFAULT_KNOTS[-1][0])
        assert list(curve.table) == list(range(last + 1))
        for q in range(last + 1):
            assert curve.table[q] == curve.utilization(q)
        # Integer knots, a last knot off the integers, none at zero.
        assert QdepthUtilizationCurve([(0, 0.0), (10, 1.0)]).table[5] == 0.5
        assert list(QdepthUtilizationCurve([(2.0, 0.1), (7.5, 0.9)]).table) == list(range(8))

    def test_table_stops_at_the_int_field(self):
        deep = QdepthUtilizationCurve([(0.0, 0.0), (1e9, 1.0)])
        assert len(deep.table) == 0xFFFF + 1
        assert deep.table[0xFFFF] == deep.utilization(0xFFFF)
        assert QdepthUtilizationCurve([(-5.0, 0.0), (-1.0, 1.0)]).table == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            QdepthUtilizationCurve([(0, 0.0)])
        with pytest.raises(ValueError):
            QdepthUtilizationCurve([(0, 0.5), (10, 0.2)])  # decreasing
        with pytest.raises(ValueError):
            QdepthUtilizationCurve([(0, 0.0), (10, 1.5)])  # out of range


class TestBandwidthEstimator:
    def test_idle_path_estimates_full_capacity(self, sim, store):
        _feed(store)
        est = BandwidthEstimator(store, link_capacity_bps=mbps(20))
        assert est.throughput_between(H(1), H(2)) == pytest.approx(mbps(20))

    def test_bottleneck_minimum_rule(self, sim, store):
        _feed(store, qdepths=(30, 0))  # s1 egress congested
        est = BandwidthEstimator(store, link_capacity_bps=mbps(20))
        curve = QdepthUtilizationCurve()
        expected = mbps(20) * (1 - curve.utilization(30))
        assert est.throughput_between(H(1), H(2)) == pytest.approx(expected)

    def test_link_available_bw(self, sim, store):
        """The bottleneck is the minimum of the per-link rule the reference
        estimator prices one link at a time."""
        _feed(store, qdepths=(10, 0))
        est = BandwidthEstimator(store, link_capacity_bps=mbps(20))
        ref = _ReferenceBandwidthEstimator(store, link_capacity_bps=mbps(20))
        assert ref.link_available_bw(S(1), S(2)) < mbps(20)
        assert ref.link_available_bw(S(2), H(2)) == pytest.approx(mbps(20))
        links = [(H(1), S(1)), (S(1), S(2)), (S(2), H(2))]
        assert est.throughput_between(H(1), H(2)) == min(
            ref.link_available_bw(u, v) for u, v in links
        )

    @pytest.mark.parametrize("qdepth", [2.5, 41, 10_000])
    def test_depth_off_the_table_takes_the_rule(self, sim, store, qdepth):
        """A non-integer depth, or one past the table's last knot, is
        priced by ``utilization`` itself; a depth on the table is not."""
        _feed(store, qdepths=(qdepth, 0))
        est = BandwidthEstimator(store, link_capacity_bps=mbps(20))
        curve = est.curve
        assert qdepth not in curve.table and 0 in curve.table
        asked = []

        def utilization(q):
            asked.append(q)
            return QdepthUtilizationCurve.utilization(curve, q)

        curve.utilization = utilization
        expected = mbps(20) * (1 - QdepthUtilizationCurve().utilization(qdepth))
        assert est.throughput_between(H(1), H(2)) == expected
        assert asked == [qdepth]

    def test_capacity_validated(self, sim, store):
        with pytest.raises(ValueError):
            BandwidthEstimator(store, link_capacity_bps=0)

    def test_degenerate_path_rejected(self, sim, store):
        _feed(store)
        est = BandwidthEstimator(store, link_capacity_bps=mbps(20))
        with pytest.raises(SchedulingError, match="at least one link"):
            est.throughput_between(H(1), H(1))
