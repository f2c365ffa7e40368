"""Unit tests for the static-analysis graphs (VDG, CDFG, COI)."""

import networkx as nx
import pytest

from repro.analysis import (
    coi_features,
    cone_of_influence,
    control_data_flow_graph,
    fanout_cone,
    influence_ranking,
    sequential_depth,
    variable_dependency_graph,
)
from repro.bench.corpus import get_corpus


class TestVariableDependencyGraph:
    def test_data_dependencies(self, adder_design):
        graph = variable_dependency_graph(adder_design)
        assert graph.has_edge("a", "total")
        assert graph.has_edge("total", "sum")
        assert graph.has_edge("total", "carry")

    def test_control_dependencies(self, arb2_design):
        graph = variable_dependency_graph(arb2_design)
        # gnt1 is assigned under the if(gnt_) condition -> control edge
        assert graph.has_edge("gnt_", "gnt1")
        assert graph.has_edge("req1", "gnt1")

    def test_sequential_dependencies(self, counter_design):
        graph = variable_dependency_graph(counter_design)
        assert graph.has_edge("en", "count")
        assert graph.has_edge("rst", "count")


class TestCones:
    def test_cone_of_influence(self, arb2_design):
        cone = cone_of_influence(arb2_design, "gnt1")
        assert {"req1", "req2", "gnt_", "gnt1"} <= cone

    def test_fanout_cone(self, arb2_design):
        fanout = fanout_cone(arb2_design, "req1")
        assert "gnt1" in fanout and "gnt2" in fanout

    def test_unknown_signal_raises(self, arb2_design):
        with pytest.raises(KeyError):
            cone_of_influence(arb2_design, "nothere")

    def test_coi_features_exclude_clock_and_target(self, arb2_design):
        features = coi_features(arb2_design, "gnt1")
        assert "clk" not in features
        assert "gnt1" not in features
        assert "req1" in features
        assert "gnt_" in features

    def test_coi_features_can_exclude_state(self, arb2_design):
        features = coi_features(arb2_design, "gnt1", include_state=False)
        assert "gnt_" not in features


class TestCdfgAndRanking:
    def test_cdfg_node_kinds(self, arb2_design):
        graph = control_data_flow_graph(arb2_design)
        kinds = {data["kind"] for _, data in graph.nodes(data=True)}
        assert {"signal", "comb", "seq"} <= kinds

    def test_cdfg_connects_processes_to_signals(self, adder_design):
        graph = control_data_flow_graph(adder_design)
        assert graph.has_edge(("signal", "a"), ("assign", 0))

    def test_influence_ranking_prefers_inputs(self, arb2_design):
        ranking = influence_ranking(arb2_design)
        assert ranking.index("req1") < ranking.index("gnt2")

    def test_sequential_depth(self, arb2_design):
        # req1 combinationally drives gnt1 (depth 0), and reaches gnt_ through
        # one register stage.
        assert sequential_depth(arb2_design, "req1", "gnt1") == 0
        assert sequential_depth(arb2_design, "req1", "gnt_") >= 1

    def test_sequential_depth_no_path(self, adder_design):
        assert sequential_depth(adder_design, "sum", "a") is None


ORACLE_CORPORA = ("assertionbench-control", "assertionbench-mutation", "assertionbench-wide")


def _oracle_designs():
    seen = {}
    for name in ORACLE_CORPORA:
        for design in get_corpus(name).all_designs():
            seen.setdefault(design.name, design)
    return list(seen.values())


@pytest.mark.parametrize("design", _oracle_designs(), ids=lambda design: design.name)
def test_cone_queries_match_networkx(design):
    """The plain edge-map walks agree with networkx on the VDG, signal by signal."""
    model = design.model
    graph = variable_dependency_graph(design)
    order = list(model.signals)
    for name in model.signals:
        ancestors = nx.ancestors(graph, name) | {name}
        assert cone_of_influence(design, name) == ancestors
        assert fanout_cone(design, name) == nx.descendants(graph, name) | {name}
        # Features come from the cone in signal order, and every non-clock
        # input of the cone is among them.
        with_state = coi_features(design, name)
        without_state = coi_features(design, name, include_state=False)
        assert set(with_state) <= ancestors - {name}
        assert with_state == sorted(with_state, key=order.index)
        assert without_state == [other for other in with_state if other in without_state]
        cone_inputs = {
            other
            for other in ancestors - {name} - set(model.clocks)
            if model.signals[other].kind == "input"
        }
        assert cone_inputs <= set(without_state)
    scores = {name: len(nx.descendants(graph, name)) for name in model.signals}
    assert influence_ranking(design) == sorted(
        model.signals, key=lambda name: (-scores[name], name)
    )
