"""Telemetry-quality observatory: coverage ledger, freshness, attribution."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig4_topology import build_fig4_network
from repro.obs.events import EventLog
from repro.obs.quantiles import QuantileDigest
from repro.obs.telquality import (
    AGE_BIN_EDGES,
    PENDING_GAPS_MAX,
    TelemetryQuality,
    render_telemetry_report,
)
from repro.p4.headers import IntHopRecord
from repro.simnet.engine import Simulator
from repro.simnet.random import RandomStreams
from repro.simnet.topology import Network
from repro.telemetry.collector import IntCollector
from repro.telemetry.probe import ProbeResponder, ProbeSender
from repro.telemetry.records import ProbeReport


@pytest.fixture
def star3(sim):
    """Three hosts on one switch: ports (s1,h1), (s1,h2), (s1,h3)."""
    net = Network(sim, streams=RandomStreams(0))
    for name in ("h1", "h2", "h3"):
        net.add_host(name)
    net.add_switch("s1")
    for name in ("h1", "h2", "h3"):
        net.connect(name, "s1", rate_bps=20e6, delay=1e-3)
    net.finalize()
    return net


def _report(net, src, dst, at):
    """A probe src -> s1 -> dst: one qdepth stamping and one latency."""
    return ProbeReport(
        probe_src=net.hosts[src].addr,
        probe_dst=net.hosts[dst].addr,
        seq=1,
        sent_at=at,
        received_at=at,
        records=[
            IntHopRecord(
                switch_id=net.switches["s1"].switch_id, egress_port=0,
                max_qdepth=3, link_latency=0.002, egress_ts=at,
            )
        ],
        final_link_latency=0.001,
        collected_at=at,
    )


class _StubState:
    def __init__(self, latency_updated_at=-1.0, qdepth_updated_at=-1.0):
        self.latency_updated_at = latency_updated_at
        self.qdepth_updated_at = qdepth_updated_at


class _StubStore:
    def __init__(self, states):
        self._states = states

    def link_state(self, u, v):
        return self._states.get((u, v))


def _candidate(est, truth, path=()):
    return {"estimated_delay": est, "truth_delay": truth, "path": list(path)}


class TestCoverageLedger:
    def test_observed_ports_and_pairs(self, sim, star3):
        tq = TelemetryQuality()
        tq.attach_network(star3)
        tq.configure(layout="star", pairs=[("h1", "h2")], probing_interval=0.1)
        tq.report_ingested(_report(star3, "h1", "h2", 1.0))
        tq.report_ingested(_report(star3, "h1", "h2", 1.1))
        coverage = tq._coverage_section()
        assert coverage["total_ports"] == 3
        assert coverage["observed_ports"] == 1
        assert coverage["blind"] == [["s1", "h1"], ["s1", "h3"]]
        (port,) = coverage["ports"]
        assert (port["u"], port["v"]) == ("s1", "h2")
        assert port["observations"] == 2
        assert port["effective_interval"] == pytest.approx(0.1)
        assert port["pairs"] == [["h1", "h2"]]

    def test_blind_set_checked_against_layout_prediction(self, sim, star3):
        tq = TelemetryQuality()
        tq.attach_network(star3)
        # The (h1, h2) probe covers exactly (s1, h2): prediction matches.
        tq.configure(layout="star", pairs=[("h1", "h2")], probing_interval=0.1)
        tq.report_ingested(_report(star3, "h1", "h2", 1.0))
        assert tq._coverage_section()["matches_prediction"] is True
        # A probe the layout never promised lights up (s1, h3): divergence.
        tq.report_ingested(_report(star3, "h1", "h3", 2.0))
        coverage = tq._coverage_section()
        assert coverage["matches_prediction"] is False
        assert coverage["expected_blind"] == [["s1", "h1"], ["s1", "h3"]]

    def test_coverage_fraction_none_before_configure(self, sim, star3):
        tq = TelemetryQuality()
        tq.attach_network(star3)
        assert tq.coverage_fraction() is None
        tq.configure(layout="mesh", pairs=[], probing_interval=0.1)
        assert tq.coverage_fraction() == 0.0
        tq.report_ingested(_report(star3, "h1", "h2", 1.0))
        assert tq.coverage_fraction() == pytest.approx(1.0 / 3.0)


class TestFreshness:
    def test_register_refresh_gaps(self, sim, star3):
        tq = TelemetryQuality()
        tq.attach_network(star3)
        tq.configure(layout="star", pairs=[("h1", "h2")], probing_interval=0.1)
        for at in (1.0, 1.1, 1.3):
            tq.report_ingested(_report(star3, "h1", "h2", at))
        section = tq._freshness_section()
        by_key = {(r["node"], r["register"]): r for r in section["registers"]}
        assert by_key[("s1", "qdepth")]["refreshes"] == 3
        assert by_key[("s1", "latency")]["refreshes"] == 3
        # The final switch -> host latency reading has no switch register.
        assert set(by_key) == {("s1", "qdepth"), ("s1", "latency")}

    def test_decision_age_digest_and_sampler_cursor(self):
        tq = TelemetryQuality()
        tq.probing_interval = 0.1
        store = _StubStore({
            (("host", 1), ("sw", 1)): _StubState(0.8, 0.9),
            (("sw", 1), ("host", 2)): _StubState(0.5, -1.0),
        })
        tq.decision(1.0, store, [
            _candidate(0.01, 0.02, ["host:1", "sw:1", "host:2"]),
        ])
        assert tq.decision_age.count == 2   # one age per consulted hop
        assert tq.take_max_decision_age() == pytest.approx(0.5)
        assert tq.take_max_decision_age() is None   # cursor advanced


class TestAttribution:
    def test_skip_rules_mirror_delay_error_stats(self):
        tq = TelemetryQuality()
        store = _StubStore({})
        tq.decision(1.0, store, [
            _candidate(None, 0.02),            # estimate missing
            _candidate(math.inf, 0.02),        # unreachable estimate
            _candidate(0.01, None),            # truth missing
            _candidate(0.01, 0.02),            # accepted
        ])
        assert tq.samples_skipped == 3
        assert len(tq._samples) == 1

    def test_bins_partition_samples(self):
        tq = TelemetryQuality()
        tq.probing_interval = 1.0
        # Hop ages 0.2 (bin 0), 3.0 (bin [2x,5x)), 50.0 (>= 20x tail).
        store = _StubStore({
            (("host", 1), ("sw", 1)): _StubState(0.0, 0.0),
        })
        for now, err in ((0.2, 0.01), (3.0, -0.02), (50.0, 0.05)):
            tq.decision(now, store, [
                _candidate(err, 0.0, ["host:1", "sw:1"]),
            ])
        # A candidate with no resolvable hops lands in the unknown bin.
        tq.decision(60.0, store, [_candidate(0.01, 0.0, ["host:9", "sw:9"])])
        section = tq._attribution_section(None)
        by_label = {b["label"]: b for b in section["bins"]}
        assert by_label["[0x, 0.5x)"]["count"] == 1
        assert by_label["[2x, 5x)"]["count"] == 1
        assert by_label[">= 20x"]["count"] == 1
        assert by_label["unknown"]["count"] == 1
        assert sum(b["count"] for b in section["bins"]) == section["samples"]
        assert by_label["[2x, 5x)"]["mean_error"] == pytest.approx(-0.02)
        assert by_label["[2x, 5x)"]["mean_abs_error"] == pytest.approx(0.02)
        assert len(section["bins"]) == len(AGE_BIN_EDGES) + 1

    def test_loss_and_fault_window_split(self):
        tq = TelemetryQuality()
        tq.probing_interval = 0.1
        store = _StubStore({})
        tq.decision(1.0, store, [_candidate(0.01, 0.0)])   # inside windows
        tq.decision(5.0, store, [_candidate(0.04, 0.0)])   # outside
        events = EventLog()
        events.probe_lost(src=1, dst=2, seq=9, lost=2, time=1.1)
        events.fault_injected(fault="link_down", target="s1", time=0.9)
        events.fault_recovered(fault="link_down", target="s1", time=1.5)
        section = tq._attribution_section(events)
        loss = section["loss_windows"]
        assert loss["windows"] == 1
        assert loss["in"]["count"] == 1 and loss["out"]["count"] == 1
        assert loss["in"]["mean_abs_error"] == pytest.approx(0.01)
        fault = section["fault_windows"]
        assert fault["windows"] == 1
        assert fault["in"]["count"] == 1 and fault["out"]["count"] == 1

    def test_unrecovered_fault_window_stays_open(self):
        tq = TelemetryQuality()
        store = _StubStore({})
        tq.decision(100.0, store, [_candidate(0.01, 0.0)])
        events = EventLog()
        events.fault_injected(fault="server_down", target="node3", time=2.0)
        section = tq._attribution_section(events)
        assert section["fault_windows"]["in"]["count"] == 1


class _ThreeViewIngest:
    """The ingest as it was first written: three passes per report over
    ``port_observations()`` / ``link_latencies()`` and one dict per
    freshness quantity.  The reference the single-pass body is pinned to."""

    def __init__(self, tq):
        self.name = tq._node_name
        self.observed = {}
        self.last_refresh = {}
        self.refresh_counts = {}
        self.refresh_ages = {}

    def report_ingested(self, report):
        now = report.collected_at
        src = self.name(("host", report.probe_src))
        dst = self.name(("host", report.probe_dst))
        for sw, downstream, _port, _qdepth in report.port_observations():
            u, v = self.name(sw), self.name(downstream)
            if u is None or v is None:
                continue
            entry = self.observed.setdefault(
                (u, v), {"count": 0, "first": now, "last": now, "pairs": set()}
            )
            entry["count"] += 1
            entry["last"] = now
            if src is not None and dst is not None:
                entry["pairs"].add((src, dst))
            self.touch(u, "qdepth", now)
        for _u, v_node, latency in report.link_latencies():
            if latency is None or v_node[0] != "sw":
                continue
            v = self.name(v_node)
            if v is not None:
                self.touch(v, "latency", now)

    def touch(self, node, register, now):
        key = (node, register)
        last = self.last_refresh.get(key)
        self.last_refresh[key] = now
        self.refresh_counts[key] = self.refresh_counts.get(key, 0) + 1
        if last is not None:
            self.refresh_ages.setdefault(key, QuantileDigest()).add(now - last)

    def ports(self):
        """The ledger as the record's ``coverage.ports`` lists it."""
        out = []
        for (u, v), entry in sorted(self.observed.items()):
            count = entry["count"]
            out.append({
                "u": u, "v": v, "observations": count,
                "first": entry["first"], "last": entry["last"],
                "effective_interval": (
                    (entry["last"] - entry["first"]) / (count - 1) if count > 1 else None
                ),
                "pairs": [list(p) for p in sorted(entry["pairs"])],
            })
        return out

    def registers(self):
        """The refresh state as the record's ``freshness.registers``."""
        out = []
        for key in sorted(self.refresh_counts):
            ages = self.refresh_ages.get(key)
            out.append({
                "node": key[0], "register": key[1],
                "refreshes": self.refresh_counts[key],
                "age": ages.to_dict() if ages is not None else None,
            })
        return out


def _assert_matches_reference(tq, reference):
    """The public views of ``tq`` against the eager three-view reference."""
    (record,) = tq.snapshot_records()
    assert tq.snapshot_records() == [record]   # reading twice changes nothing
    coverage = record["coverage"]
    assert coverage["ports"] == reference.ports()
    known = {port for port in reference.observed if port in tq._all_ports}
    assert coverage["observed_ports"] == len(known)
    assert coverage["blind"] == [list(p) for p in sorted(tq._all_ports - known)]
    assert record["freshness"]["registers"] == reference.registers()
    summary = tq.summary()
    assert summary["registers"] == len(reference.refresh_counts)
    assert summary["ports_observed"] == len(known)


class TestSinglePassIngest:
    def _mesh_reports(self, sim):
        """One second of mesh probing on the Fig. 4 network, as ingested."""
        topo = build_fig4_network(sim, RandomStreams(7))
        net = topo.network
        collector = IntCollector(net.host(topo.scheduler_name))
        reports = []
        collector.subscribe(reports.append)
        addrs = [net.address_of(n) for n in topo.node_names]
        for name in topo.node_names:
            host = net.host(name)
            if name == topo.scheduler_name:
                ProbeResponder(host, collector=collector)
            else:
                ProbeResponder(host, collector_addr=topo.scheduler_addr)
            ProbeSender(
                host, [a for a in addrs if a != host.addr],
                interval=0.1, probe_size=256,
            ).start()
        sim.run(until=1.0)
        return net, reports

    def test_matches_three_view_formulation(self, sim):
        net, reports = self._mesh_reports(sim)
        assert len(reports) > 300
        assert {len(r.records) for r in reports} >= {3, 4, 5}
        a, b = reports[0].probe_src, reports[0].probe_dst
        hop = reports[0].records[0]

        def shaped(at, records, final=0.001, src=a, dst=b):
            return ProbeReport(
                probe_src=src, probe_dst=dst, seq=1, sent_at=at, received_at=at,
                records=records, final_link_latency=final, collected_at=at,
            )

        def record(switch_id, latency):
            return IntHopRecord(
                switch_id=switch_id, egress_port=hop.egress_port,
                max_qdepth=2, link_latency=latency, egress_ts=0.0,
            )

        reports += [
            shaped(1.10, [], final=None),                        # zero-hop
            shaped(1.11, [record(hop.switch_id, None)]),         # no latency
            shaped(1.12, [record(hop.switch_id, 0.01), record(99, 0.01)]),
            shaped(1.13, [record(99, 0.01), record(hop.switch_id, 0.01)]),
            shaped(1.14, [record(hop.switch_id, 0.01)] * 2),     # revisit
            shaped(1.15, [record(hop.switch_id, 0.01)], src=12345),  # unknown host
        ]

        tq = TelemetryQuality()
        tq.attach_network(net)
        reference = _ThreeViewIngest(tq)
        for report in reports:
            tq.report_ingested(report)
            reference.report_ingested(report)

        _assert_matches_reference(tq, reference)
        (record,) = tq.snapshot_records()
        assert any(port["pairs"] for port in record["coverage"]["ports"])
        assert all(r["age"] for r in record["freshness"]["registers"])


# One synthetic report: (src host, dst host, [(switch, has latency)...]),
# indices into the line network's hosts/switches with one unknown id each.
_hop = st.tuples(st.integers(0, 3), st.booleans())
_shape = st.tuples(st.integers(0, 3), st.integers(0, 3), st.lists(_hop, max_size=4))
_op = st.one_of(
    st.tuples(st.just("report"), _shape),
    st.tuples(st.just("snapshot"), st.none()),
    # One path again and again, until a register's pending gaps are folded
    # before anybody reads them.
    st.tuples(st.just("burst"), _shape),
)


class TestFoldOnRead:
    """Gaps are appended by the hook and digested by the reader: whatever
    the interleaving of ingests and reads, every read gives what digesting
    each gap as it arrives gives."""

    @staticmethod
    def _line_network():
        """h1 - s1 - s2 - s3 - h3, h2 on s2."""
        net = Network(Simulator(), streams=RandomStreams(0))
        for name in ("h1", "h2", "h3"):
            net.add_host(name)
        for name in ("s1", "s2", "s3"):
            net.add_switch(name)
        for a, b in (("h1", "s1"), ("s1", "s2"), ("h2", "s2"), ("s2", "s3"), ("s3", "h3")):
            net.connect(a, b, rate_bps=20e6, delay=1e-3)
        net.finalize()
        return net

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_op, max_size=25))
    def test_any_interleaving_matches_eager_digesting(self, ops):
        net = self._line_network()
        hosts = [net.hosts[n].addr for n in ("h1", "h2", "h3")] + [12345]
        switches = [net.switches[n].switch_id for n in ("s1", "s2", "s3")] + [99]
        tq = TelemetryQuality()
        tq.attach_network(net)
        reference = _ThreeViewIngest(tq)
        clock = [0.0]

        def ingest(shape):
            src, dst, hops = shape
            clock[0] += 0.01
            report = ProbeReport(
                probe_src=hosts[src], probe_dst=hosts[dst], seq=1,
                sent_at=clock[0], received_at=clock[0],
                records=[
                    IntHopRecord(
                        switch_id=switches[sw], egress_port=0, max_qdepth=1,
                        link_latency=0.002 if latency else None, egress_ts=0.0,
                    )
                    for sw, latency in hops
                ],
                final_link_latency=0.001, collected_at=clock[0],
            )
            tq.report_ingested(report)
            reference.report_ingested(report)

        for kind, shape in ops:
            if kind == "snapshot":
                _assert_matches_reference(tq, reference)
            else:
                for _ in range(PENDING_GAPS_MAX + 30 if kind == "burst" else 1):
                    ingest(shape)
        _assert_matches_reference(tq, reference)


class TestSnapshot:
    def test_snapshot_is_deterministic(self, sim, star3):
        def build():
            tq = TelemetryQuality()
            tq.attach_network(star3)
            tq.configure(
                layout="star", pairs=[("h2", "h1"), ("h1", "h2")],
                probing_interval=0.1,
            )
            tq.report_ingested(_report(star3, "h1", "h2", 1.0))
            tq.decision(1.5, _StubStore({}), [_candidate(0.01, 0.02)])
            return tq.snapshot_records()

        first, second = build(), build()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        (record,) = first
        assert record["kind"] == "telquality"
        assert record["pairs"] == [["h1", "h2"], ["h2", "h1"]]   # sorted


class TestReport:
    def test_placeholder_on_pre_observatory_export(self):
        text = render_telemetry_report([{"kind": "metric", "name": "x"}])
        assert "no telemetry-quality records" in text
        assert "--telquality" in text

    def test_report_cross_checks_audit_totals(self, sim, star3):
        tq = TelemetryQuality()
        tq.attach_network(star3)
        tq.configure(layout="star", pairs=[("h1", "h2")], probing_interval=0.1)
        tq.report_ingested(_report(star3, "h1", "h2", 1.0))
        tq.decision(1.5, _StubStore({}), [_candidate(0.01, 0.02)])
        (record,) = tq.snapshot_records()
        audit = {
            "kind": "decision-audit", "metric": "delay",
            "candidates": [{"estimated_delay": 0.01, "truth_delay": 0.02}],
        }
        text = render_telemetry_report([audit, record])
        assert "bin counts sum to 1 vs 1 decision-audit samples: OK" in text
        assert "coverage: 1/3 directed ports observed" in text
        # Drop the audit record: the cross-check reports the mismatch.
        extra = dict(audit)
        extra["candidates"] = audit["candidates"] * 2
        assert "MISMATCH" in render_telemetry_report([extra, record])
