"""Node labels: one spelling of a telemetry node id, for every node kind.

:func:`repro.telemetry.records.node_label` renders a
:data:`~repro.telemetry.records.TelemetryNodeId` as ``kind:index``; the
decision audit (via ``repro.obs.node_label``), the ranking explanations and
the scheduler's quarantine events and trace hop labels all spell node ids
with it.  Exported path labels must name nodes unambiguously, and the
telemetry plane has exactly two node-id constructors — ``switch_node`` and
``host_node`` — so a new kind must show up here first.
"""

import pytest

from repro.core.estimators import DelayEstimator
from repro.core.ranking import explain_delay
from repro.core.telemetry_store import TelemetryStore
from repro.obs import node_label as obs_node_label
from repro.telemetry.records import host_node, node_label, switch_node

ALL_NODE_KINDS = [
    switch_node(0),
    switch_node(3),
    switch_node(1234),
    host_node(0),
    host_node(101),
]


def _parse(label):
    kind, index = label.split(":")
    return (kind, int(index))


class TestRoundTrip:
    @pytest.mark.parametrize("node", ALL_NODE_KINDS, ids=str)
    def test_audit_label_parses_back(self, node):
        assert _parse(obs_node_label(node)) == node

    @pytest.mark.parametrize("node", ALL_NODE_KINDS, ids=str)
    def test_ranking_label_parses_back(self, sim, node):
        # An explanation's path lists every node it crosses by label.
        if node[0] == "sw":
            path = [host_node(7), node, host_node(8)]
        else:
            path = [node, switch_node(5), host_node(8)]
        store = TelemetryStore(sim)
        store.topology.observe_path(path)
        detail = explain_delay(DelayEstimator(store), path[0], path[-1])
        assert [_parse(label) for label in detail["path"]] == path

    @pytest.mark.parametrize("node", ALL_NODE_KINDS, ids=str)
    def test_both_renderers_agree(self, node):
        assert obs_node_label(node) == node_label(node) == f"{node[0]}:{node[1]}"

    def test_constructors_cover_the_expected_kinds(self):
        # New node kinds must be added to ALL_NODE_KINDS above (and the
        # parse-back checked) — this canary fails when one appears.
        assert {node[0] for node in ALL_NODE_KINDS} == {"sw", "host"}
        assert switch_node(3) == ("sw", 3)
        assert host_node(101) == ("host", 101)
