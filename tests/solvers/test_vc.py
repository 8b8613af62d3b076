"""Tests for vertex-cover solvers."""

import networkx as nx
import pytest

from repro.graphs import generators as gen
from repro.solvers.vc import (
    all_vertices_cover,
    is_vertex_cover,
    matching_vertex_cover,
    minimum_vertex_cover,
    vertex_cover_number,
)


class TestExactVc:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (gen.path(2), 1),
            (gen.path(5), 2),
            (gen.cycle(6), 3),
            (gen.cycle(7), 4),
            (gen.star(7), 1),
            (nx.complete_graph(5), 4),
            (nx.complete_bipartite_graph(2, 6), 2),
        ],
    )
    def test_known_values(self, graph, expected):
        assert vertex_cover_number(graph) == expected

    def test_validity(self, small_zoo):
        for g in small_zoo:
            assert is_vertex_cover(g, minimum_vertex_cover(g))

    def test_edgeless_graph(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        assert minimum_vertex_cover(g) == set()

    def test_koenig_on_bipartite(self):
        # König: VC = max matching on bipartite graphs.
        for n in (4, 6, 8):
            g = gen.ladder(n // 2)
            matching = nx.max_weight_matching(g, maxcardinality=True)
            assert vertex_cover_number(g) == len(matching)


class TestApproximations:
    def test_matching_cover_validity(self, small_zoo):
        for g in small_zoo:
            assert is_vertex_cover(g, matching_vertex_cover(g))

    def test_matching_cover_factor_two(self, small_zoo):
        for g in small_zoo:
            assert len(matching_vertex_cover(g)) <= 2 * vertex_cover_number(g)

    def test_all_vertices_cover(self, cycle6):
        cover = all_vertices_cover(cycle6)
        assert is_vertex_cover(cycle6, cover)
        # on 2-regular graphs taking everything is a 2-approximation
        assert len(cover) <= 2 * vertex_cover_number(cycle6)

    def test_is_vertex_cover_rejects(self, path5):
        assert not is_vertex_cover(path5, {0})


@pytest.mark.parametrize("backend", ["int", "packed"])
def test_is_vertex_cover_on_either_kernel(backend):
    """The CSR check keeps the edge-walk semantics on both backends."""
    from repro.graphs.kernel import KernelView, kernel_for

    graph = nx.path_graph(4)
    graph.add_edge(3, 3)
    graph.add_node("isolated")
    view = KernelView(kernel_for(graph.copy(), backend=backend))
    for g in (graph, view):
        assert is_vertex_cover(g, {1, 3})
        # A self-loop is covered only by its own vertex.
        assert not is_vertex_cover(g, {1, 2})
        # Labels outside the graph cover nothing and are not an error.
        assert is_vertex_cover(g, {1, 3, "missing", (9, 9)})
        assert not is_vertex_cover(g, {"missing"})
    assert is_vertex_cover(nx.empty_graph(3), set())
    assert is_vertex_cover(nx.Graph(), {"missing"})
