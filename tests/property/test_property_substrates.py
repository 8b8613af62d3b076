"""Property-based tests for the newer substrates."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.domination import is_dominating_set
from repro.api import simulate
from repro.core.d2 import d2_dominating_set
from repro.core.distributed_greedy import distributed_greedy_dominating_set
from repro.graphs.operations import attach_pendants, graph_power, subdivide
from repro.graphs.treewidth import is_valid_decomposition, min_fill_decomposition, width
from repro.graphs.util import ball

from tests.property.strategies import connected_graphs, random_trees

COMMON = {"max_examples": 30, "deadline": None}


@given(connected_graphs(max_nodes=12))
@settings(**COMMON)
def test_min_fill_always_valid(graph):
    assert is_valid_decomposition(graph, min_fill_decomposition(graph))


@given(random_trees(min_nodes=2, max_nodes=20))
@settings(**COMMON)
def test_trees_always_width_one(graph):
    assert width(min_fill_decomposition(graph)) == 1


@given(connected_graphs(max_nodes=12))
@settings(**COMMON)
def test_subdivision_preserves_node_growth(graph):
    once = subdivide(graph)
    assert once.number_of_nodes() == graph.number_of_nodes() + graph.number_of_edges()
    assert once.number_of_edges() == 2 * graph.number_of_edges()
    assert nx.is_connected(once)


@given(connected_graphs(max_nodes=10))
@settings(**COMMON)
def test_pendants_never_reduce_domination(graph):
    from repro.solvers.exact import domination_number

    bushy = attach_pendants(graph, 1)
    assert domination_number(bushy) >= domination_number(graph)


@given(connected_graphs(max_nodes=10), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_graph_power_edges_match_balls(graph, k):
    powered = graph_power(graph, k)
    for v in graph.nodes:
        expected = ball(graph, v, k) - {v}
        assert set(powered.neighbors(v)) == expected


@given(connected_graphs(max_nodes=10))
@settings(max_examples=20, deadline=None)
def test_d2_protocol_matches_centralized(graph):
    assert simulate(graph, "d2").chosen == d2_dominating_set(graph).solution


@given(connected_graphs(max_nodes=10))
@settings(max_examples=20, deadline=None)
def test_distributed_greedy_always_dominates(graph):
    result = distributed_greedy_dominating_set(graph)
    assert is_dominating_set(graph, result.solution)
