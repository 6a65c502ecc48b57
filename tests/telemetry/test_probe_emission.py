"""Copy-and-patch probe and report emission equals the constructor path.

:class:`ProbeSender` and :class:`ProbeResponder` copy each probe and each
mesh report from a per-target template instead of calling
:meth:`Host.new_packet`.  The rule :class:`UdpCbrFlow`'s template follows
holds here too: every slot of every emitted packet, ``packet_id`` and
``src_port`` included, must equal what the constructor path builds, packet
for packet, so ids and ephemeral ports are drawn in the same order.  The
reference below is the constructor path, run on the same Fig. 4 network
with mesh probing.
"""

import pytest

from repro.experiments.fig4_topology import build_fig4_network
from repro.p4.headers import encode_probe_header
from repro.simnet.addressing import PORT_PROBE, PROTO_UDP
from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.packet import (
    DEFAULT_TTL,
    FLAG_PROBE,
    HEADER_OVERHEAD,
    Packet,
    reset_packet_ids,
)
from repro.simnet.random import run_streams
from repro.telemetry.collector import IntCollector
from repro.telemetry.probe import PORT_PROBE_REPORT, ProbeResponder, ProbeSender

EMITTED = 200   # probes, and mesh reports, compared packet for packet


class _CtorSender(ProbeSender):
    """A probe per tick through ``Host.new_packet``."""

    def _tick(self) -> None:
        target = self.targets[self._target_index % len(self.targets)]
        self._target_index += 1
        self._seq += 1
        packet = self.host.new_packet(
            target,
            protocol=PROTO_UDP,
            src_port=self._src_port,
            dst_port=PORT_PROBE,
            size_bytes=self.probe_size,
            payload=encode_probe_header(0),
            flags=FLAG_PROBE,
            seq=self._seq,
            message=self.host.clock.read(),
        )
        self.probes_sent += 1
        self.host.send(packet)


class _CtorResponder(ProbeResponder):
    """A mesh report per probe through ``Host.new_packet``."""

    def _on_probe(self, packet: Packet) -> None:
        if self.collector is not None:
            super()._on_probe(packet)
            return
        self.probes_terminated += 1
        received_at = self.host.clock.read()
        final_link_latency = None
        if packet.last_egress_ts is not None:
            final_link_latency = received_at - packet.last_egress_ts
        report = self.host.new_packet(
            self.collector_addr,
            protocol=PROTO_UDP,
            src_port=self.host.ephemeral_port(),
            dst_port=PORT_PROBE_REPORT,
            size_bytes=HEADER_OVERHEAD + len(packet.payload) + 24,
            message=(
                packet.src_addr,
                self.host.addr,
                packet.seq,
                packet.message if isinstance(packet.message, float) else 0.0,
                received_at,
                packet.payload,
                final_link_latency,
            ),
        )
        self.reports_forwarded += 1
        self.host.send(report)


def _slots(packet):
    return tuple(getattr(packet, slot, None) for slot in Packet.__slots__)


def _emitted(sender_cls, responder_cls):
    """Every probe and report each host sends in 0.3 s of mesh probing on
    the Fig. 4 network, as slot tuples taken at send time, plus the
    senders and responders themselves.  The constructor-path classes are
    built with no templates at all, so a template that consumed a packet
    id would shift every id after it."""
    reset_packet_ids()
    sim = Simulator()
    topo = build_fig4_network(sim, run_streams(11))
    net = topo.network
    collector = IntCollector(net.host(topo.scheduler_name))
    addrs = [net.address_of(n) for n in topo.node_names]
    senders, responders = [], []
    sent = {PORT_PROBE: [], PORT_PROBE_REPORT: []}
    send = Host.send

    def recording_send(host, packet):
        if packet.dst_port in sent:
            sent[packet.dst_port].append(_slots(packet))
        return send(host, packet)

    with pytest.MonkeyPatch.context() as mp:
        if sender_cls is _CtorSender:
            mp.setattr(Packet, "template", classmethod(lambda cls, *a, **k: None))
        for name in topo.node_names:
            host = net.host(name)
            if name == topo.scheduler_name:
                responders.append(responder_cls(host, collector=collector))
            else:
                responders.append(responder_cls(host, collector_addr=topo.scheduler_addr))
            senders.append(sender_cls(host, addrs, interval=0.02, probe_size=256))
        mp.setattr(Host, "send", recording_send)
        for sender in senders:
            sender.start()
        sim.run(until=0.3)
    return sent[PORT_PROBE], sent[PORT_PROBE_REPORT], senders, responders, collector


@pytest.fixture(scope="module")
def runs():
    return _emitted(ProbeSender, ProbeResponder), _emitted(_CtorSender, _CtorResponder)


class TestEmissionEquivalence:
    def test_probes_equal_the_constructor_path_slot_for_slot(self, runs):
        (probes, _, _, _, _), (reference, _, _, _, _) = runs
        assert len(probes) >= EMITTED
        assert probes[:EMITTED] == reference[:EMITTED]
        assert probes == reference

    def test_reports_equal_the_constructor_path_slot_for_slot(self, runs):
        (_, reports, _, _, _), (_, reference, _, _, _) = runs
        assert len(reports) >= EMITTED
        assert reports[:EMITTED] == reference[:EMITTED]
        assert reports == reference

    def test_the_runs_ingest_the_same_reports(self, runs):
        (_, _, _, _, collector), (_, _, _, _, reference) = runs
        assert collector.reports_ingested == reference.reports_ingested > EMITTED
        assert collector.reports_malformed == reference.reports_malformed == 0

    def test_templates_survive_their_copies(self, runs):
        """Switches rewrite every probe in flight (payload, size, ttl, hop
        bookkeeping): none of it reaches a template, which still builds
        the frame a fresh sender would."""
        (_, _, senders, responders, _), _ = runs
        for sender in senders:
            host = sender.host
            for target, template in zip(sender.targets, sender._templates):
                assert _slots(template) == _slots(_template_like(host, target, sender))
        for responder in responders:
            if responder._report is not None:
                assert responder._report.payload is None
                assert responder._report.message is None
                assert responder._report.src_port == 0

    def test_mutating_a_copy_leaves_the_template_unchanged(self, sim, line3):
        sender = ProbeSender(line3.host("h1"), [line3.address_of("h3")], probe_size=256)
        (template,) = sender._templates
        before = _slots(template)
        packet = template.copy_patch(7, 0.5)
        packet.payload += b"\x00" * 17
        packet.size_bytes = 1500
        packet.message = 1.25
        packet.ttl -= 1
        packet.hop_count += 1
        packet.last_egress_ts = 0.25
        assert _slots(template) == before
        assert packet.packet_id is not None and packet.seq == 7


def _template_like(host, target, sender):
    """What a template's slots must read: a probe's fixed fields, with the
    per-copy slots (id, seq, creation time, hop bookkeeping) never set."""
    expected = Packet.__new__(Packet)
    expected.src_addr = host.addr
    expected.dst_addr = target
    expected.protocol = PROTO_UDP
    expected.src_port = sender._src_port
    expected.dst_port = PORT_PROBE
    expected.size_bytes = sender.probe_size
    expected.payload = encode_probe_header(0)
    expected.message = None
    expected.flags = FLAG_PROBE
    expected.ttl = DEFAULT_TTL
    expected.flow_id = 0
    return expected
