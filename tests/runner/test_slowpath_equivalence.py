"""Fast path vs oracle path: byte-identical exports on the fig5 smoke grid.

``REPRO_SLOWPATH=1`` disables both fast-path engines — the compiled
per-(switch, packet-class) forwarding closures and the NIC's transmit-
completion elision — leaving the staged ``PipelineContext`` pipeline and one
completion event per frame as the oracle.  The tentpole acceptance bar: the
full Fig. 5 smoke grid must export byte-identical payloads either way.  The
env var is read at network build time, so flipping it between serial
in-process runs is enough.
"""

import pytest

from repro.edge.task import SizeClass
from repro.experiments import harness
from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig
from repro.faults import FaultEvent, FaultPlan
from repro.faults.plan import REGISTER_WIPE
from repro.p4.headers import HOP_RECORD_SIZE, encode_probe_header
from repro.p4.int_program import MAX_QDEPTH_REGISTER
from repro.p4.per_packet_int import PerPacketIntProgram
from repro.runner import Runner, RunSpec
from repro.runner.bench import bench_grid_specs
from repro.simnet.addressing import PORT_PROBE, PROTO_UDP
from repro.simnet.packet import FLAG_PROBE

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def fast_results():
    return Runner(jobs=1).run(bench_grid_specs("smoke"))


class TestSlowpathEquivalence:
    def test_fig5_smoke_grid_byte_identical(self, fast_results, monkeypatch):
        monkeypatch.setenv("REPRO_SLOWPATH", "1")
        slow = Runner(jobs=1).run(bench_grid_specs("smoke"))
        assert len(slow) == len(fast_results) == 12
        for f, s in zip(fast_results, slow):
            assert f.payload_json() == s.payload_json(), f.spec.label()

    def test_fast_path_engages_by_default(self, monkeypatch):
        """Guard against silently testing slow-vs-slow: a default-built
        switch carries compiled closures and its ports elide the completion
        event of a frame nothing waits behind."""
        monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
        from repro.simnet.engine import Simulator
        from repro.simnet.random import RandomStreams
        from repro.simnet.topology import Network
        from repro.units import mbps, ms

        sim = Simulator()
        net = Network(sim, RandomStreams(0))
        net.add_host("h1")
        net.add_host("h2")
        net.add_switch("s01")
        net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
        net.finalize()
        switch = net.switch("s01")
        assert switch._fast_ingress is not None
        assert switch._fast_egress is not None
        h1 = net.host("h1")
        h1.send(h1.new_packet(net.address_of("h2"), dst_port=PORT_PROBE))
        assert [e[3].__qualname__ for e in sim._heap] == ["Switch.on_ingress"]
        assert h1.ports[0].busy and h1.ports[0].packets_sent == 0

        # ... and the closures take probes too: with the staged entry points
        # booby-trapped, a probe still crosses the switch fully stamped.
        def staged(*_args):
            raise AssertionError("probe fell back to the staged pipeline")

        monkeypatch.setattr(switch.program, "process_ingress", staged)
        monkeypatch.setattr(switch.program, "process_egress", staged)
        probe = net.host("h1").new_packet(
            net.address_of("h2"), dst_port=PORT_PROBE, size_bytes=256,
            payload=encode_probe_header(0), flags=FLAG_PROBE,
        )
        probe.last_egress_ts = 0.0
        h1.ports[0]._deliver(probe, switch.ports[0])
        assert switch.program.probes_processed == 1
        assert len(probe.payload) == len(encode_probe_header(0)) + HOP_RECORD_SIZE
        assert probe.int_link_latency is None and probe.last_egress_ts is not None


def _probe_dense_spec(label, **changes):
    """Class VS under mesh probing every 20 ms: probes are most packets."""
    config = ExperimentConfig(
        scale=SMOKE_SCALE, seed=5, size_class=SizeClass.VS, policy="aware",
        probing_interval=0.02, probe_layout="mesh", **changes,
    )
    return RunSpec.from_config(config, obs_run={"cell": label})


# Probe-flagged datagrams no INT switch can extend: bad magic, shorter than
# the header, truncated mid-record, and a hop_count the length contradicts.
_MALFORMED_PAYLOADS = (
    b"XX\x01\x00",
    b"NT",
    encode_probe_header(2) + bytes(HOP_RECORD_SIZE + 5),
    encode_probe_header(0) + bytes(HOP_RECORD_SIZE),
)


def _inject_malformed_probes(sim, topo):
    net = topo.network
    src = net.host(topo.worker_names[0])
    dst = net.address_of(topo.worker_names[-1])

    def send(payload):
        src.send(src.new_packet(
            dst, protocol=PROTO_UDP, dst_port=PORT_PROBE, size_bytes=256,
            payload=payload, flags=FLAG_PROBE, message=src.clock.read(),
        ))

    for i in range(12):
        sim.schedule(1.1 + 0.25 * i, send, _MALFORMED_PAYLOADS[i % 4])


_BUILD_FIG4 = harness.build_fig4_network


def _run_cell(monkeypatch, spec, *, slowpath, inject=None):
    """One in-process run; returns the result and every switch's data-plane
    counters (captured from the network the harness built)."""
    built = []

    def build(sim, streams):
        topo = _BUILD_FIG4(sim, streams)
        built.append(topo)
        if inject is not None:
            inject(sim, topo)
        return topo

    monkeypatch.setattr(harness, "build_fig4_network", build)
    if slowpath:
        monkeypatch.setenv("REPRO_SLOWPATH", "1")
    else:
        monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
    [result] = Runner(jobs=1).run([spec])
    [topo] = built
    counters = {}
    for name, switch in sorted(topo.network.switches.items()):
        assert (switch._fast_ingress is None) == slowpath
        program = switch.program
        reg = program.register(MAX_QDEPTH_REGISTER)
        counters[name] = {
            "reads": reg.reads, "writes": reg.writes, "resets": reg.resets,
            "values": reg.snapshot(),
            "probes_processed": program.probes_processed,
            "malformed_probes": program.malformed_probes,
            "data_packets_observed": program.data_packets_observed,
            "table_hits": program.forward_table.hits,
            "table_misses": program.forward_table.misses,
            "forwarded": switch.packets_forwarded,
            "dropped": switch.packets_dropped_pipeline,
        }
    return result, counters


class TestProbeLifecycleEquivalence:
    """The compiled probe closures (int_stamp at ingress, collect-and-reset +
    hop append at egress) against the staged oracle, where probes dominate
    and where they go wrong."""

    def _assert_equivalent(self, monkeypatch, spec, inject=None):
        fast, fast_counters = _run_cell(monkeypatch, spec, slowpath=False, inject=inject)
        slow, slow_counters = _run_cell(monkeypatch, spec, slowpath=True, inject=inject)
        # Booleans, not ``==`` inside the assert: pytest's diff of two
        # multi-megabyte strings takes minutes.
        same_payload = fast.payload_json() == slow.payload_json()
        same_export = fast.obs_records() == slow.obs_records()
        assert same_payload and same_export and fast.obs_records()
        assert fast_counters == slow_counters
        return fast, fast_counters

    def test_probe_dense_cell(self, monkeypatch):
        fast, counters = self._assert_equivalent(
            monkeypatch, _probe_dense_spec("probe-dense")
        )
        probes = sum(c["probes_processed"] for c in counters.values())
        data = sum(c["data_packets_observed"] for c in counters.values())
        assert probes > data / 4  # probe-dense, not the usual ~7 %
        assert sum(c["malformed_probes"] for c in counters.values()) == 0

    def test_register_wipe_and_malformed_probes_cell(self, monkeypatch):
        plan = FaultPlan(
            name="wipe-under-probe-storm",
            events=(
                FaultEvent(time=1.5, kind=REGISTER_WIPE, target="*"),
                FaultEvent(time=2.5, kind=REGISTER_WIPE, target="*"),
            ),
        )
        fast, counters = self._assert_equivalent(
            monkeypatch,
            _probe_dense_spec("probe-faulted", fault_plan=plan),
            inject=_inject_malformed_probes,
        )
        assert all(c["resets"] == 2 for c in counters.values())
        # Every injected datagram is refused at each switch hop it crosses
        # (register value restored) and again at the collector.
        assert sum(c["malformed_probes"] for c in counters.values()) >= 12
        [refused] = [
            r["value"] for r in fast.obs_records()
            if r.get("name") == "probe_reports_malformed_total"
        ]
        assert refused == 12


class TestObservedEquivalence:
    """Every collection flag on: the observers ride the compiled closures
    (hooks bound into the probe branches) on one side and the staged
    pipeline's slot tests on the other, and must export the same bytes."""

    def test_full_flag_cell(self, monkeypatch):
        config = ExperimentConfig(
            scale=SMOKE_SCALE, seed=5, size_class=SizeClass.S, policy="aware",
        )
        spec = RunSpec.from_config(config, obs_run={"cell": "full-flag"}).instrumented(
            trace=True, sample_interval=0.1, telquality=True, whatif=True,
        )
        topos = []

        def keep(_sim, topo):
            topos.append(topo)

        fast, fast_counters = _run_cell(monkeypatch, spec, slowpath=False, inject=keep)
        slow, slow_counters = _run_cell(monkeypatch, spec, slowpath=True, inject=keep)
        # Booleans, not ``==`` inside the assert (see above).
        same_payload = fast.payload_json() == slow.payload_json()
        same_export = fast.obs_records() == slow.obs_records()
        same_spans = fast.trace_records() == slow.trace_records()
        assert same_payload and same_export and same_spans
        assert fast_counters == slow_counters
        kinds = {r["kind"] for r in fast.obs_records()}
        assert {"timeseries", "telquality", "whatif"} <= kinds
        hops = [r for r in fast.trace_records() if r["name"] == "hop"]
        assert {h["attributes"]["node"][0] for h in hops} == {"n", "s"}  # hosts + switches
        # Guard against comparing wrap to wrap: the tracer is attached on
        # both sides, and no node's handler is anything but its class's.
        for topo in topos:
            net = topo.network
            for node in [*net.hosts.values(), *net.switches.values()]:
                assert node.observer is not None
                assert node.on_ingress.__func__ is type(node).on_ingress
                assert node.on_egress.__func__ is type(node).on_egress

    @pytest.mark.parametrize("flags", [
        {"sample_interval": 0.05},
        {"telquality": True, "whatif": True},
    ], ids=["sampler", "telq+whatif"])
    def test_hub_only_cells(self, monkeypatch, flags):
        """A hub and no packet observer: threshold callbacks on every queue,
        hub byte counters on every link and (first cell) a sampler reading
        those counters mid-run every 50 ms — all on ports that elide their
        idle completions on the fast side."""
        config = ExperimentConfig(
            scale=SMOKE_SCALE, seed=6, size_class=SizeClass.S, policy="aware",
        )
        spec = RunSpec.from_config(config, obs_run={"cell": "hub"}).instrumented(**flags)
        topos = []
        fast, fast_counters = _run_cell(
            monkeypatch, spec, slowpath=False, inject=lambda _sim, topo: topos.append(topo)
        )
        slow, slow_counters = _run_cell(monkeypatch, spec, slowpath=True)
        same_payload = fast.payload_json() == slow.payload_json()
        same_export = fast.obs_records() == slow.obs_records()
        assert same_payload and same_export and fast_counters == slow_counters
        records = fast.obs_records()
        assert any(r.get("name") == "link_bytes_total" and r["value"] > 0 for r in records)
        assert ("timeseries" in {r["kind"] for r in records}) == ("sample_interval" in flags)
        [topo] = topos
        net = topo.network
        assert all(
            node.observer is None for node in [*net.hosts.values(), *net.switches.values()]
        )
        assert all(link.obs_counters is not None for link in net.links.values())

    def test_snmp_policy_polling_mid_run(self, monkeypatch):
        """The legacy policy ranks by link byte counters it polls *during*
        the run; a poll must read what per-frame completions would have
        written by then, or its decisions — and the payload — move."""
        config = ExperimentConfig(
            scale=SMOKE_SCALE, seed=6, size_class=SizeClass.S, policy="snmp",
            snmp_poll_interval=0.2,
        )
        spec = RunSpec.from_config(config)
        fast, fast_counters = _run_cell(monkeypatch, spec, slowpath=False)
        slow, slow_counters = _run_cell(monkeypatch, spec, slowpath=True)
        same_payload = fast.payload_json() == slow.payload_json()
        assert same_payload and fast_counters == slow_counters
        assert fast.payload["sim_time"] > 10 * config.snmp_poll_interval


class TestCompileRefusals:
    def test_per_packet_int_stays_on_oracle_path(self):
        """PerPacketIntProgram overrides ingress/egress; compile() must
        refuse it so the staged path remains authoritative."""
        assert PerPacketIntProgram().compile() is None

    def test_unknown_subclass_override_refused(self):
        from repro.p4.int_program import IntTelemetryProgram

        class Exotic(IntTelemetryProgram):
            def egress(self, ctx):  # pragma: no cover - never invoked
                super().egress(ctx)

        assert Exotic().compile() is None

    def test_observed_plain_forwarding_runs_staged_until_detached(self, monkeypatch):
        """Plain forwarding has no probe branch to bind an observer's hook
        into, so it refuses to compile while one is attached (the staged
        path tests the slot); the INT program keeps its closures."""
        monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
        from repro.p4.forwarding import PlainForwardingProgram
        from repro.simnet.engine import Simulator
        from repro.simnet.random import RandomStreams
        from repro.simnet.topology import Network
        from repro.simnet.trace import PacketTracer
        from repro.units import mbps, ms

        for factory, compiled_while_observed in (
            (PlainForwardingProgram, False), (None, True),
        ):
            sim = Simulator()
            net = Network(sim, RandomStreams(0), program_factory=factory)
            net.add_host("h1")
            net.add_host("h2")
            net.add_switch("s01")
            net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
            net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
            net.finalize()
            switch = net.switch("s01")
            assert switch._fast_ingress is not None
            tracer = PacketTracer([switch])
            assert (switch._fast_ingress is not None) == compiled_while_observed
            net.host("h2").bind(PROTO_UDP, 9, lambda p: None)
            h1 = net.host("h1")
            h1.send(h1.new_packet(net.address_of("h2"), dst_port=9))
            sim.run()
            assert [e.kind for e in tracer.events] == ["ingress", "egress"]
            tracer.detach()
            assert switch._fast_ingress is not None
