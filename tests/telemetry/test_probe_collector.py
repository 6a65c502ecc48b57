"""Probe sender, responder, and collector working over a real network."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry.collector import IntCollector
from repro.telemetry.probe import DEFAULT_PROBE_INTERVAL, ProbeResponder, ProbeSender
from repro.units import kbps, mbps, ms


class TestProbeSender:
    def test_sends_at_interval(self, sim, line3):
        net = line3
        collector = IntCollector(net.host("h3"))
        ProbeResponder(net.host("h3"), collector=collector)
        sender = ProbeSender(net.host("h1"), [net.address_of("h3")], interval=0.1)
        sender.start()
        sim.run(until=1.0)
        assert sender.probes_sent == 10
        assert collector.reports_ingested == 10

    def test_default_interval_is_100ms(self):
        assert DEFAULT_PROBE_INTERVAL == 0.1

    def test_overhead_matches_paper(self, sim, line3):
        """Paper Section III-A: 10 pkt/s x 1.5 KB = 120 Kb/s per sender."""
        sender = ProbeSender(line3.host("h1"), [line3.address_of("h3")])
        assert sender.overhead_bps == pytest.approx(kbps(120))

    def test_excludes_self_target(self, sim, line3):
        sender = ProbeSender(
            line3.host("h1"),
            [line3.address_of("h1"), line3.address_of("h3")],
        )
        assert sender.targets == [line3.address_of("h3")]

    def test_no_targets_rejected(self, sim, line3):
        with pytest.raises(TelemetryError):
            ProbeSender(line3.host("h1"), [])

    def test_only_self_target_rejected(self, sim, line3):
        """Its own address is dropped before the target list is checked: a
        sender left with no target fails at construction, not at its
        first tick."""
        with pytest.raises(TelemetryError, match="at least one target"):
            ProbeSender(line3.host("h1"), [line3.address_of("h1")])

    def test_bad_interval_rejected(self, sim, line3):
        with pytest.raises(TelemetryError):
            ProbeSender(line3.host("h1"), [1], interval=0.0)

    def test_undersized_probe_rejected(self, sim, line3):
        with pytest.raises(TelemetryError):
            ProbeSender(line3.host("h1"), [1], probe_size=10)

    def test_multiple_targets_per_tick(self, sim, line3):
        net = line3
        collector = IntCollector(net.host("h3"))
        ProbeResponder(net.host("h3"), collector=collector)
        ProbeResponder(net.host("h2"), collector_addr=net.address_of("h3"))
        sender = ProbeSender(
            net.host("h1"),
            [net.address_of("h2"), net.address_of("h3")],
            interval=0.1,
            probe_size=256,
        )
        sender.start()
        sim.run(until=1.0)
        assert sender.probes_sent == 20


class TestResponderAndCollector:
    def test_local_collector_path(self, sim, line3):
        net = line3
        collector = IntCollector(net.host("h3"))
        responder = ProbeResponder(net.host("h3"), collector=collector)
        sender = ProbeSender(net.host("h1"), [net.address_of("h3")])
        sender.start()
        sim.run(until=0.5)
        assert responder.probes_terminated > 0
        assert responder.reports_forwarded == 0
        report = collector.last_report
        assert report.probe_src == net.address_of("h1")
        assert report.probe_dst == net.address_of("h3")
        assert [r.switch_id for r in report.records] == [1, 2]

    def test_remote_responder_forwards(self, sim, line3):
        net = line3
        collector = IntCollector(net.host("h3"))
        responder = ProbeResponder(net.host("h2"), collector_addr=net.address_of("h3"))
        sender = ProbeSender(net.host("h1"), [net.address_of("h2")])
        sender.start()
        sim.run(until=0.5)
        assert responder.reports_forwarded > 0
        report = collector.last_report
        assert report.probe_dst == net.address_of("h2")
        assert [r.switch_id for r in report.records] == [1, 2]

    def test_responder_requires_destination(self, sim, line3):
        with pytest.raises(TelemetryError):
            ProbeResponder(line3.host("h2"))

    def test_final_link_latency_present(self, sim, line3):
        net = line3
        collector = IntCollector(net.host("h3"))
        ProbeResponder(net.host("h3"), collector=collector)
        ProbeSender(net.host("h1"), [net.address_of("h3")]).start()
        sim.run(until=0.5)
        final = collector.last_report.final_link_latency
        assert final == pytest.approx(ms(10) + 1500 * 8 / mbps(20), abs=2e-3)

    def test_malformed_wrapped_report_counted(self, sim, line3):
        net = line3
        collector = IntCollector(net.host("h3"))
        h1 = net.host("h1")
        from repro.telemetry.probe import PORT_PROBE_REPORT

        pkt = h1.new_packet(
            net.address_of("h3"), dst_port=PORT_PROBE_REPORT, message=("garbage",)
        )
        h1.send(pkt)
        sim.run(until=0.5)
        assert collector.reports_malformed == 1
        assert collector.reports_ingested == 0

    def test_wrapped_report_payload_not_bytes_counted(self, sim, line3):
        """A 7-tuple whose payload field isn't bytes is rejected without
        raising — the mesh path must survive a buggy or hostile forwarder."""
        net = line3
        collector = IntCollector(net.host("h3"))
        h1 = net.host("h1")
        from repro.telemetry.probe import PORT_PROBE_REPORT

        bad = ("src", "dst", 0, 0.0, 0.0, {"not": "bytes"}, None)
        h1.send(h1.new_packet(
            net.address_of("h3"), dst_port=PORT_PROBE_REPORT, message=bad
        ))
        sim.run(until=0.5)
        assert collector.reports_malformed == 1
        assert collector.reports_ingested == 0

    def test_wrapped_report_malformed_probe_payload_counted(self, sim, line3):
        """Well-formed wrapper around a garbage probe payload: counted as
        malformed by the inner decode, never raises out of the handler."""
        net = line3
        collector = IntCollector(net.host("h3"))
        h1 = net.host("h1")
        from repro.telemetry.probe import PORT_PROBE_REPORT

        wrapped = (1, 3, 0, 0.0, 0.1, b"NOTAPROBE", None)
        h1.send(h1.new_packet(
            net.address_of("h3"), dst_port=PORT_PROBE_REPORT, message=wrapped
        ))
        sim.run(until=0.5)
        assert collector.reports_malformed == 1
        assert collector.reports_ingested == 0

    def test_wrapped_report_accepts_bytearray_payload(self, sim, line3):
        """The mesh path round-trips a real probe payload carried as a
        bytearray (the other branch of the isinstance check)."""
        net = line3
        collector = IntCollector(net.host("h3"))
        responder = ProbeResponder(net.host("h2"), collector_addr=net.address_of("h3"))
        ProbeSender(net.host("h1"), [net.address_of("h2")]).start()
        sim.run(until=0.5)
        assert responder.reports_forwarded > 0
        assert collector.reports_malformed == 0
        # The newest forward may still be in flight at the cutoff.
        assert collector.reports_ingested >= responder.reports_forwarded - 1 > 0

    def test_malformed_probe_payload_counted(self, sim, line3):
        collector = IntCollector(line3.host("h3"))
        out = collector.ingest_probe(
            probe_src=1, probe_dst=2, seq=0, sent_at=0.0, received_at=0.0,
            payload=b"NOTAPROBE", final_link_latency=None,
        )
        assert out is None
        assert collector.reports_malformed == 1

    def test_subscribers_receive_reports(self, sim, line3):
        net = line3
        collector = IntCollector(net.host("h3"))
        ProbeResponder(net.host("h3"), collector=collector)
        got = []
        collector.subscribe(got.append)
        ProbeSender(net.host("h1"), [net.address_of("h3")]).start()
        sim.run(until=0.35)
        assert len(got) == collector.reports_ingested > 0


class TestCollectorObservability:
    """With an Observability hub attached, malformed input is diagnosable."""

    def _attach(self, sim):
        from repro.obs import Observability

        obs = Observability()
        obs.bind_sim(sim)
        return obs

    def test_malformed_payload_emits_warning_with_context(self, sim, line3):
        obs = self._attach(sim)
        collector = IntCollector(line3.host("h3"))
        collector.ingest_probe(
            probe_src=7, probe_dst=2, seq=41, sent_at=0.0, received_at=0.0,
            payload=b"NOTAPROBE", final_link_latency=None,
        )
        warnings = obs.events.of_kind("warning")
        assert len(warnings) == 1
        fields = warnings[0].fields
        assert fields["reason"] == "malformed_probe_payload"
        assert fields["src"] == 7 and fields["seq"] == 41
        assert obs.metrics.counter("probe_reports_malformed_total").value == 1

    def test_malformed_wrapped_report_emits_warning(self, sim, line3):
        net = line3
        obs = self._attach(sim)
        collector = IntCollector(net.host("h3"))
        h1 = net.host("h1")
        from repro.telemetry.probe import PORT_PROBE_REPORT

        h1.send(h1.new_packet(
            net.address_of("h3"), dst_port=PORT_PROBE_REPORT, message=("garbage",)
        ))
        sim.run(until=0.5)
        assert collector.reports_malformed == 1
        warnings = obs.events.of_kind("warning")
        assert [e.fields["reason"] for e in warnings] == ["malformed_wrapped_report"]
        assert warnings[0].fields["src"] == net.address_of("h1")
        assert "seq" in warnings[0].fields

    def test_seq_gap_counts_lost_probes(self, sim, line3):
        obs = self._attach(sim)
        collector = IntCollector(line3.host("h3"))
        # Stream with stride 1: seqs 0, 1, then a jump to 4 -> 2 lost.
        for seq in (0, 1, 4):
            collector._track_loss(obs, src=1, dst=3, seq=seq)
        assert collector.probes_lost == 2
        lost = obs.events.of_kind("probe_lost")
        assert len(lost) == 1
        assert lost[0].fields["lost"] == 2

    def test_round_robin_stride_inferred(self, sim, line3):
        obs = self._attach(sim)
        collector = IntCollector(line3.host("h3"))
        # Two targets share one seq counter: this stream sees 0, 2, 4, ...
        for seq in (0, 2, 4, 6):
            collector._track_loss(obs, src=1, dst=3, seq=seq)
        assert collector.probes_lost == 0
        collector._track_loss(obs, src=1, dst=3, seq=10)  # skipped seq 8
        assert collector.probes_lost == 1

    def test_sender_restart_resets_stream(self, sim, line3):
        """Regression: a restarted sender (seq back to 0) must not book the
        climb back to the old front as thousands of lost probes."""
        obs = self._attach(sim)
        collector = IntCollector(line3.host("h3"))
        for seq in (500, 501, 502):
            collector._track_loss(obs, src=1, dst=3, seq=seq)
        # Sender reboots: stream restarts from 0 and counts up normally.
        for seq in (0, 1, 2, 3):
            collector._track_loss(obs, src=1, dst=3, seq=seq)
        assert collector.probes_lost == 0
        assert obs.events.of_kind("probe_lost") == []
        # The reset stream detects fresh gaps immediately.
        collector._track_loss(obs, src=1, dst=3, seq=6)
        assert collector.probes_lost == 2

    def test_duplicate_seq_ignored(self, sim, line3):
        obs = self._attach(sim)
        collector = IntCollector(line3.host("h3"))
        for seq in (0, 1, 1, 2):
            collector._track_loss(obs, src=1, dst=3, seq=seq)
        assert collector.probes_lost == 0

    def test_small_reorder_tolerated_without_reset(self, sim, line3):
        """A straggler within a few strides is reordering, not a restart:
        the stream keeps its front and its inferred stride."""
        obs = self._attach(sim)
        collector = IntCollector(line3.host("h3"))
        for seq in (0, 1, 2, 3):
            collector._track_loss(obs, src=1, dst=3, seq=seq)
        collector._track_loss(obs, src=1, dst=3, seq=2)  # late straggler
        assert collector._streams[(1, 3)] == (3, 1)
        collector._track_loss(obs, src=1, dst=3, seq=4)  # stream continues
        assert collector.probes_lost == 0
