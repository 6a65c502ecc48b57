"""A miniature P4-style programmable data plane.

The paper programs BMv2 switches in P4 to (a) record per-port maximum egress
queue depth in registers on every data packet, and (b) splice register values
plus egress timestamps into probe packets (Section III-A, Fig. 2).  This
subpackage reproduces that programming model:

* :mod:`repro.p4.registers` — stateful register arrays;
* :mod:`repro.p4.tables` — exact-match match-action tables;
* :mod:`repro.p4.pipeline` — the Parser / Ingress / Egress / Deparser
  program structure described in the paper's Section II;
* :mod:`repro.p4.headers` — byte-level codecs for the probe header and the
  per-hop INT metadata stack;
* :mod:`repro.p4.int_program` — the paper's INT program itself;
* :mod:`repro.p4.forwarding` — a plain forwarding program (no telemetry),
  used as the "legacy network" baseline and in substrate tests.
"""

from repro.p4.headers import IntHopRecord, decode_probe_payload, encode_probe_header
from repro.p4.int_program import IntTelemetryProgram
from repro.p4.forwarding import PlainForwardingProgram
from repro.p4.pipeline import P4Program, PipelineContext
from repro.p4.registers import RegisterArray
from repro.p4.tables import ExactMatchTable

__all__ = [
    "IntHopRecord",
    "decode_probe_payload",
    "encode_probe_header",
    "IntTelemetryProgram",
    "PlainForwardingProgram",
    "P4Program",
    "PipelineContext",
    "RegisterArray",
    "ExactMatchTable",
]
