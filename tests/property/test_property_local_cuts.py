"""Property-based pinning: bitset local-cut pipeline vs legacy semantics.

Reuses the verbatim legacy implementations from
``tests.graphs.test_local_cuts_legacy`` over randomized cut-rich graphs,
so hypothesis explores shapes the hand-picked differential zoo misses.
"""

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.algorithm1 import _phase_sets
from repro.core.radii import RadiusPolicy
from repro.graphs.cuts import components_after_removal, minimal_two_cuts
from repro.graphs.families import get_family
from repro.graphs.kernel import invalidate_kernel
from repro.graphs.local_cuts import (
    _PARTNER_CACHE,
    _Arenas,
    interesting_vertices,
    local_one_cuts,
    local_two_cuts,
)
from repro.graphs.twins import remove_true_twins
from repro.graphs.util import weak_diameter

from tests.graphs.test_local_cuts_legacy import (
    legacy_components_after_removal,
    legacy_interesting_vertices,
    legacy_local_one_cuts,
    legacy_local_two_cuts,
    legacy_minimal_two_cuts,
    legacy_phase_sets,
    legacy_remove_true_twins,
    legacy_weak_diameter,
)
from tests.property.strategies import connected_graphs, sparse_connected_graphs

COMMON = {"max_examples": 30, "deadline": None}
RADII = st.sampled_from([2, 3, 4])
HUBS = [
    (name, size)
    for name in ("fan", "star", "fan_flower", "clique_pendants")
    for size in (24, 60)
]


@given(sparse_connected_graphs())
@settings(**COMMON)
def test_local_cut_enumerations_match_legacy(graph):
    assert local_one_cuts(graph, 2) == legacy_local_one_cuts(graph, 2)
    assert local_two_cuts(graph, 2) == legacy_local_two_cuts(graph, 2)
    assert local_two_cuts(graph, 2, minimal=False) == (
        legacy_local_two_cuts(graph, 2, minimal=False)
    )


@given(sparse_connected_graphs(max_nodes=12))
@settings(**COMMON)
def test_interesting_vertices_match_legacy(graph):
    assert interesting_vertices(graph, 2) == legacy_interesting_vertices(graph, 2)


@given(sparse_connected_graphs())
@settings(**COMMON)
def test_global_cut_enumerations_match_legacy(graph):
    assert minimal_two_cuts(graph) == legacy_minimal_two_cuts(graph)
    cut = set(list(graph.nodes)[:2])
    assert components_after_removal(graph, cut) == (
        legacy_components_after_removal(graph, cut)
    )


@given(connected_graphs())
@settings(**COMMON)
def test_twin_removal_matches_legacy(graph):
    reduced, mapping = remove_true_twins(graph)
    legacy_reduced, legacy_mapping = legacy_remove_true_twins(graph)
    assert set(reduced.nodes) == set(legacy_reduced.nodes)
    assert {frozenset(e) for e in reduced.edges} == (
        {frozenset(e) for e in legacy_reduced.edges}
    )
    assert mapping == legacy_mapping


@given(connected_graphs())
@settings(**COMMON)
def test_weak_diameter_matches_legacy(graph):
    vertices = list(graph.nodes)[::2]
    assert weak_diameter(graph, vertices) == legacy_weak_diameter(graph, vertices)


@given(sparse_connected_graphs(max_nodes=12))
@settings(max_examples=20, deadline=None)
def test_phase_sets_match_legacy(graph):
    policy = RadiusPolicy.practical()
    reduced, _ = remove_true_twins(graph)
    assert _phase_sets(reduced, policy) == legacy_phase_sets(reduced, policy)


# -- the radius-2 link certificate ------------------------------------------
#
# connected_graphs() is triangle-rich, so links are often connected and
# the link-level rejection fires; the sparse strategy exercises the
# region fills and the unlinked (local 1-cut) branch.


@given(connected_graphs(), RADII)
@settings(**COMMON)
def test_certified_enumerations_match_legacy_on_dense_graphs(graph, r):
    assert local_two_cuts(graph, r) == legacy_local_two_cuts(graph, r)
    assert local_one_cuts(graph, r) == legacy_local_one_cuts(graph, r)


@given(connected_graphs(max_nodes=10), RADII)
@settings(**COMMON)
def test_certified_interesting_vertices_match_legacy(graph, r):
    assert interesting_vertices(graph, r) == legacy_interesting_vertices(graph, r)


@pytest.mark.parametrize("name,size", HUBS)
def test_certified_enumerations_match_legacy_on_hubs(name, size):
    graph = get_family(name).make(size, 0)
    assert local_two_cuts(graph, 3) == legacy_local_two_cuts(graph, 3)
    assert local_one_cuts(graph, 2) == legacy_local_one_cuts(graph, 2)
    assert interesting_vertices(graph, 3) == legacy_interesting_vertices(graph, 3)


def _hexagons_sharing_an_edge() -> nx.Graph:
    """Two 6-cycles through the edge ``01``: ``{0, 1}`` is a minimal cut,
    and ``N(0)`` meets three components of ``G[N²[0]] − 0`` with ``1``
    alone in its own — the case where a link vertex must still pass."""
    return nx.Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                     (1, 6), (6, 7), (7, 8), (8, 9), (9, 0)])


@given(st.one_of(connected_graphs(), sparse_connected_graphs()), RADII)
@example(_hexagons_sharing_an_edge(), 3)
@settings(**COMMON)
def test_minimal_local_two_cuts_pass_both_partner_masks(graph, r):
    """The lemma: the certificate never rejects a true minimal cut."""
    arenas = _Arenas(graph, r)
    index_of = arenas.kernel.index_of
    for cut in legacy_local_two_cuts(graph, r):
        u, v = (index_of[w] for w in cut)
        assert arenas.partner_mask(u) >> v & 1
        assert arenas.partner_mask(v) >> u & 1
    for w in legacy_local_one_cuts(graph, r):
        i = index_of[w]
        assert arenas.partner_mask(i) >> i & 1


def test_invalidate_kernel_clears_partner_table():
    graph = get_family("ladder").make(12, 0)
    local_two_cuts(graph, 3)
    assert graph in _PARTNER_CACHE
    graph.remove_edge(0, 1)
    graph.add_edge(0, 3)  # same node and edge count
    invalidate_kernel(graph)
    assert graph not in _PARTNER_CACHE
    assert local_two_cuts(graph, 3) == legacy_local_two_cuts(graph, 3)
