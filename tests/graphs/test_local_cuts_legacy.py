"""Differential tests: bitset local-cut pipeline vs verbatim legacy code.

The reference implementations below are the pre-kernel subgraph-walking
versions of ``repro.graphs.cuts``, ``repro.graphs.local_cuts``,
``repro.graphs.twins``, ``repro.core.interesting`` and
``repro.graphs.util.weak_diameter``, kept verbatim (modulo a ``legacy_``
prefix and plain-BFS neighborhood helpers) so every rewritten function
can be pinned against the semantics the repo shipped with — including
output *order* where the contract is a list.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import networkx as nx
import pytest

from repro.core.algorithm1 import _phase_sets, _residual_components, algorithm1
from repro.core.interesting import (
    almost_interesting_vertices,
    friends,
    globally_interesting_vertices,
    interesting_cuts,
    is_globally_interesting,
)
from repro.core.radii import RadiusPolicy
from repro.graphs import generators as gen
from repro.graphs.cuts import (
    attached_components,
    components_after_removal,
    crossing_two_cuts,
    cut_vertices_by_definition,
    is_cut,
    is_minimal_cut,
    minimal_two_cuts,
    two_cuts,
)
from repro.graphs.kernel import invalidate_kernel
from repro.graphs.local_cuts import (
    interesting_vertices,
    interesting_vertices_of_cuts,
    is_interesting_vertex,
    is_local_one_cut,
    is_local_two_cut,
    local_one_cuts,
    local_two_cuts,
)
from repro.graphs.random_families import random_outerplanar
from repro.graphs.twins import remove_true_twins, true_twin_classes
from repro.graphs.util import weak_diameter


# -- legacy neighborhood/ball helpers (plain BFS, no kernel) ---------------


def legacy_closed_neighborhood(graph, v):
    result = set(graph.neighbors(v))
    result.add(v)
    return result


def legacy_closed_neighborhood_of_set(graph, vertices):
    result = set()
    for v in vertices:
        result.add(v)
        result.update(graph.neighbors(v))
    return result


def legacy_ball(graph, center, radius):
    if radius < 0:
        return set()
    seen = {center}
    frontier = deque([(center, 0)])
    while frontier:
        vertex, dist = frontier.popleft()
        if dist == radius:
            continue
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, dist + 1))
    return seen


def legacy_ball_of_set(graph, centers, radius):
    if radius < 0:
        return set()
    seen = set(centers)
    frontier = deque((v, 0) for v in seen)
    while frontier:
        vertex, dist = frontier.popleft()
        if dist == radius:
            continue
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, dist + 1))
    return seen


def legacy_distances_from(graph, source):
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        vertex = frontier.popleft()
        d = dist[vertex]
        for neighbor in graph.neighbors(vertex):
            if neighbor not in dist:
                dist[neighbor] = d + 1
                frontier.append(neighbor)
    return dist


def legacy_weak_diameter(graph, vertices):
    vertex_list = list(vertices)
    if len(vertex_list) <= 1:
        return 0
    best = 0
    targets = set(vertex_list)
    for v in vertex_list:
        dist = legacy_distances_from(graph, v)
        for u in targets:
            if u not in dist:
                raise ValueError(f"vertices {v!r} and {u!r} are disconnected in G")
            if dist[u] > best:
                best = dist[u]
    return best


# -- legacy global cut machinery (graphs/cuts.py, pre-rewrite) -------------


def legacy_component_count(graph):
    return nx.number_connected_components(graph)


def legacy_is_cut(graph, cut):
    cut_set = set(cut)
    if not cut_set or not set(graph.nodes) - cut_set:
        return False
    before = legacy_component_count(graph)
    after = legacy_component_count(graph.subgraph(set(graph.nodes) - cut_set))
    return after > before


def legacy_is_minimal_cut(graph, cut):
    cut_set = set(cut)
    if not legacy_is_cut(graph, cut_set):
        return False
    for size in range(1, len(cut_set)):
        for subset in combinations(sorted(cut_set, key=repr), size):
            if legacy_is_cut(graph, subset):
                return False
    return True


def legacy_cut_vertices_by_definition(graph):
    return {v for v in graph.nodes if legacy_is_cut(graph, {v})}


def legacy_two_cuts(graph):
    nodes = sorted(graph.nodes, key=repr)
    result = []
    base = legacy_component_count(graph)
    for u, v in combinations(nodes, 2):
        rest = set(graph.nodes) - {u, v}
        if rest and legacy_component_count(graph.subgraph(rest)) > base:
            result.append(frozenset({u, v}))
    return result


def legacy_minimal_two_cuts(graph):
    ones = set(nx.articulation_points(graph))
    return [cut for cut in legacy_two_cuts(graph) if not (cut & ones)]


def legacy_components_after_removal(graph, cut):
    rest = set(graph.nodes) - set(cut)
    return [set(c) for c in nx.connected_components(graph.subgraph(rest))]


def legacy_crossing_two_cuts(graph, c1, c2):
    c1_set, c2_set = set(c1), set(c2)
    if len(c1_set) != 2 or len(c2_set) != 2 or c1_set & c2_set:
        return False

    def separated(cut, pair):
        comps = legacy_components_after_removal(graph, cut)
        homes = []
        for v in pair:
            home = next((i for i, comp in enumerate(comps) if v in comp), None)
            if home is None:
                return False
            homes.append(home)
        return homes[0] != homes[1]

    return separated(c2_set, c1_set) and separated(c1_set, c2_set)


def legacy_attached_components(graph, cut):
    cut_set = set(cut)
    boundary = set()
    for v in cut_set:
        boundary.update(graph.neighbors(v))
    return [
        comp
        for comp in legacy_components_after_removal(graph, cut_set)
        if comp & boundary
    ]


# -- legacy local cuts (graphs/local_cuts.py, pre-rewrite) -----------------


def legacy_local_cut_subgraph(graph, cut, r):
    return graph.subgraph(legacy_ball_of_set(graph, cut, r))


def legacy_is_local_one_cut(graph, v, r):
    arena = legacy_local_cut_subgraph(graph, {v}, r)
    return legacy_is_cut(arena, {v})


def legacy_local_one_cuts(graph, r):
    return {v for v in graph.nodes if legacy_is_local_one_cut(graph, v, r)}


def legacy_is_local_two_cut(graph, u, v, r, *, minimal=True):
    if u == v:
        return False
    if v not in legacy_ball(graph, u, r):
        return False
    cut = {u, v}
    arena = legacy_local_cut_subgraph(graph, cut, r)
    if minimal:
        return legacy_is_minimal_cut(arena, cut)
    return legacy_is_cut(arena, cut)


def legacy_local_two_cuts(graph, r, *, minimal=True):
    seen = set()
    result = []
    for u in sorted(graph.nodes, key=repr):
        for v in sorted(legacy_ball(graph, u, r), key=repr):
            if v == u:
                continue
            pair = frozenset({u, v})
            if pair in seen:
                continue
            seen.add(pair)
            if legacy_is_local_two_cut(graph, u, v, r, minimal=minimal):
                result.append(pair)
    return result


def legacy_certifies_interesting(graph, u, v, r):
    n_u = legacy_closed_neighborhood(graph, u)
    n_v = legacy_closed_neighborhood(graph, v)
    if n_v <= n_u:
        return False
    arena = legacy_local_cut_subgraph(graph, {u, v}, r)
    rest = set(arena.nodes) - {u, v}
    witnesses = 0
    for comp in nx.connected_components(arena.subgraph(rest)):
        if any(w not in n_u for w in comp):
            witnesses += 1
            if witnesses >= 2:
                return True
    return False


def legacy_is_interesting_vertex(graph, v, r):
    for u in sorted(legacy_ball(graph, v, r), key=repr):
        if u == v:
            continue
        if not legacy_is_local_two_cut(graph, u, v, r, minimal=True):
            continue
        if legacy_certifies_interesting(graph, u, v, r):
            return True
    return False


def legacy_interesting_vertices(graph, r):
    return {v for v in graph.nodes if legacy_is_interesting_vertex(graph, v, r)}


def legacy_interesting_vertices_of_cuts(graph, cuts, r):
    result = set()
    for cut in cuts:
        u, v = sorted(cut, key=repr)
        if v not in result and legacy_certifies_interesting(graph, u, v, r):
            result.add(v)
        if u not in result and legacy_certifies_interesting(graph, v, u, r):
            result.add(u)
    return result


# -- legacy twins (graphs/twins.py, pre-rewrite) ---------------------------


def legacy_true_twin_classes(graph):
    buckets = {}
    for v in graph.nodes:
        key = frozenset(legacy_closed_neighborhood(graph, v))
        buckets.setdefault(key, set()).add(v)
    classes = list(buckets.values())
    classes.sort(key=lambda cls: repr(min(cls, key=repr)))
    return classes


def legacy_remove_true_twins(graph):
    mapping = {v: v for v in graph.nodes}
    current = graph.copy()
    while True:
        classes = legacy_true_twin_classes(current)
        removable = [cls for cls in classes if len(cls) > 1]
        if not removable:
            break
        for cls in removable:
            rep = min(cls, key=repr)
            for v in cls:
                if v != rep:
                    current.remove_node(v)
                    mapping[v] = rep
    for v in list(mapping):
        rep = mapping[v]
        while mapping[rep] != rep:
            rep = mapping[rep]
        mapping[v] = rep
    return current, mapping


# -- legacy global interesting (core/interesting.py, pre-rewrite) ----------


def legacy_second_condition(graph, u, cut):
    n_u = legacy_closed_neighborhood(graph, u)
    witnesses = 0
    for component in legacy_components_after_removal(graph, cut):
        if any(w not in n_u for w in component):
            witnesses += 1
            if witnesses >= 2:
                return True
    return False


def legacy_is_globally_interesting(graph, v, cut):
    if v not in cut or len(cut) != 2:
        return False
    (u,) = cut - {v}
    if legacy_closed_neighborhood(graph, v) <= legacy_closed_neighborhood(graph, u):
        return False
    return legacy_second_condition(graph, u, cut)


def legacy_globally_interesting_vertices(graph):
    result = set()
    for cut in legacy_minimal_two_cuts(graph):
        for v in cut:
            if v not in result and legacy_is_globally_interesting(graph, v, cut):
                result.add(v)
    return result


def legacy_interesting_cuts(graph):
    return [
        cut
        for cut in legacy_minimal_two_cuts(graph)
        if any(legacy_is_globally_interesting(graph, v, cut) for v in cut)
    ]


def legacy_almost_interesting_vertices(graph):
    result = set()
    for cut in legacy_minimal_two_cuts(graph):
        for v in cut:
            (u,) = cut - {v}
            if legacy_second_condition(graph, u, cut):
                result.add(v)
    return result


def legacy_friends(graph, u):
    result = set()
    for cut in legacy_minimal_two_cuts(graph):
        if u in cut:
            (v,) = cut - {u}
            if legacy_is_globally_interesting(graph, u, cut):
                result.add(v)
    return result


# -- graph cases -----------------------------------------------------------


def _tuple_labelled(graph):
    return nx.relabel_nodes(graph, {v: ("node", v) for v in graph.nodes}, copy=True)


def _unsortable_mixed():
    graph = nx.Graph()
    graph.add_edge(("a", 1), "b")
    graph.add_edge("b", 3)
    graph.add_edge(3, ("a", 1))
    graph.add_edge("b", "c")
    graph.add_edge("c", ("d", 2))
    graph.add_edge(("d", 2), 3)
    graph.add_node(frozenset({9}))
    return graph


def _isolated_vertices():
    graph = gen.ladder(3)
    graph.add_nodes_from([100, 101])
    return graph


def diff_graphs():
    """The differential zoo: random, family, odd-label, degenerate."""
    cases = [
        ("gnp10", nx.gnp_random_graph(10, 0.3, seed=2)),
        ("gnp14", nx.gnp_random_graph(14, 0.25, seed=5)),
        ("gnp18", nx.gnp_random_graph(18, 0.15, seed=9)),
        ("gnp22-disconnected", nx.gnp_random_graph(22, 0.08, seed=13)),
        ("cycle12", gen.cycle(12)),
        ("ladder6", gen.ladder(6)),
        ("theta33", gen.theta(3, 3)),
        ("clique-pendants4", gen.clique_with_pendants(4)),
        ("cactus24", gen.cactus_chain(2, 4)),
        ("book3", gen.book(3)),
        ("tuple-ladder", _tuple_labelled(gen.ladder(4))),
        ("unsortable-mixed", _unsortable_mixed()),
        ("zero-node", nx.Graph()),
        ("isolated", _isolated_vertices()),
    ]
    return cases


GRAPHS = diff_graphs()
IDS = [name for name, _ in GRAPHS]
JUST_GRAPHS = [g for _, g in GRAPHS]


# -- differential: local cuts ----------------------------------------------


class TestLocalCutsAgainstLegacy:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_local_one_cuts(self, graph):
        for r in (1, 2, 3):
            assert local_one_cuts(graph, r) == legacy_local_one_cuts(graph, r)

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_local_two_cuts_order_and_content(self, graph):
        for r in (2, 3):
            for minimal in (True, False):
                assert local_two_cuts(graph, r, minimal=minimal) == (
                    legacy_local_two_cuts(graph, r, minimal=minimal)
                )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_pairwise_two_cut_tests(self, graph):
        nodes = sorted(graph.nodes, key=repr)[:8]
        for u in nodes:
            for v in nodes:
                assert is_local_two_cut(graph, u, v, 2) == (
                    legacy_is_local_two_cut(graph, u, v, 2)
                )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_interesting_vertices(self, graph):
        for r in (2, 3):
            assert interesting_vertices(graph, r) == legacy_interesting_vertices(
                graph, r
            )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_interesting_of_cuts_matches_legacy_on_legacy_cuts(self, graph):
        cuts = legacy_local_two_cuts(graph, 2, minimal=True)
        assert interesting_vertices_of_cuts(graph, cuts, 2) == (
            legacy_interesting_vertices_of_cuts(graph, cuts, 2)
        )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_single_vertex_probes(self, graph):
        for v in sorted(graph.nodes, key=repr)[:6]:
            assert is_local_one_cut(graph, v, 2) == legacy_is_local_one_cut(
                graph, v, 2
            )
            assert is_interesting_vertex(graph, v, 2) == (
                legacy_is_interesting_vertex(graph, v, 2)
            )


# -- differential: global cuts ---------------------------------------------


class TestCutsAgainstLegacy:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_is_cut_samples(self, graph):
        nodes = sorted(graph.nodes, key=repr)
        samples = [set(nodes[:k]) for k in (0, 1, 2, len(nodes))]
        samples += [{v} for v in nodes[:6]]
        samples += [set(pair) for pair in combinations(nodes[:6], 2)]
        for cut in samples:
            assert is_cut(graph, cut) == legacy_is_cut(graph, cut)
            assert is_minimal_cut(graph, cut) == legacy_is_minimal_cut(graph, cut)

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_cut_vertex_enumerations(self, graph):
        assert cut_vertices_by_definition(graph) == (
            legacy_cut_vertices_by_definition(graph)
        )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_two_cut_enumerations_ordered(self, graph):
        assert two_cuts(graph) == legacy_two_cuts(graph)
        assert minimal_two_cuts(graph) == legacy_minimal_two_cuts(graph)

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_components_after_removal_ordered(self, graph):
        nodes = sorted(graph.nodes, key=repr)
        samples = [set(), set(nodes[:1]), set(nodes[:2]), set(nodes[::3])]
        for cut in samples:
            assert components_after_removal(graph, cut) == (
                legacy_components_after_removal(graph, cut)
            )
            assert attached_components(graph, cut) == (
                legacy_attached_components(graph, cut)
            )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_crossing_pairs(self, graph):
        cuts = legacy_minimal_two_cuts(graph)[:8]
        for c1, c2 in combinations(cuts, 2):
            assert crossing_two_cuts(graph, c1, c2) == (
                legacy_crossing_two_cuts(graph, c1, c2)
            )


# -- differential: twins + weak diameter -----------------------------------


class TestTwinsAgainstLegacy:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_twin_classes_ordered(self, graph):
        assert true_twin_classes(graph) == legacy_true_twin_classes(graph)

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_remove_true_twins(self, graph):
        reduced, mapping = remove_true_twins(graph)
        legacy_reduced, legacy_mapping = legacy_remove_true_twins(graph)
        assert set(reduced.nodes) == set(legacy_reduced.nodes)
        assert {frozenset(e) for e in reduced.edges} == (
            {frozenset(e) for e in legacy_reduced.edges}
        )
        assert mapping == legacy_mapping
        assert list(reduced.nodes) == list(legacy_reduced.nodes)  # same order

    def test_twin_rich_iteration(self):
        graph = nx.complete_graph(6)
        graph.add_edge(0, 10)
        graph.add_edge(10, 11)
        reduced, mapping = remove_true_twins(graph)
        legacy_reduced, legacy_mapping = legacy_remove_true_twins(graph)
        assert set(reduced.nodes) == set(legacy_reduced.nodes)
        assert mapping == legacy_mapping


class TestWeakDiameterAgainstLegacy:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_weak_diameter_samples(self, graph):
        nodes = sorted(graph.nodes, key=repr)
        samples = [nodes[:1], nodes[:3], nodes[: len(nodes) // 2], nodes]
        for subset in samples:
            try:
                expected = legacy_weak_diameter(graph, subset)
            except ValueError:
                with pytest.raises(ValueError):
                    weak_diameter(graph, subset)
            else:
                assert weak_diameter(graph, subset) == expected

    def test_absent_vertex_is_value_error_and_d_bounded_false(self):
        # A stale vertex set must stay a ValueError (not KeyError), so
        # is_d_bounded reports False instead of crashing.
        from repro.graphs.util import is_d_bounded

        graph = gen.path(4)
        with pytest.raises(ValueError):
            weak_diameter(graph, [0, "ghost"])
        assert not is_d_bounded(graph, [0, "ghost"], 10)
        assert weak_diameter(graph, ["ghost"]) == 0  # ≤1 vertex: no lookup


# -- differential: global interesting vocabulary ---------------------------


class TestGlobalInterestingAgainstLegacy:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_global_sets(self, graph):
        assert globally_interesting_vertices(graph) == (
            legacy_globally_interesting_vertices(graph)
        )
        assert interesting_cuts(graph) == legacy_interesting_cuts(graph)
        assert almost_interesting_vertices(graph) == (
            legacy_almost_interesting_vertices(graph)
        )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_per_cut_orientations(self, graph):
        for cut in legacy_minimal_two_cuts(graph)[:10]:
            for v in cut:
                assert is_globally_interesting(graph, v, cut) == (
                    legacy_is_globally_interesting(graph, v, cut)
                )

    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_friends(self, graph):
        for u in sorted(graph.nodes, key=repr)[:6]:
            assert friends(graph, u) == legacy_friends(graph, u)

    def test_friends_of_absent_vertex_is_empty(self):
        # Legacy contract: a label outside the graph has no cuts, hence
        # no friends — it must not raise.
        graph = gen.ladder(4)
        assert friends(graph, "ghost") == legacy_friends(graph, "ghost") == set()


# -- algorithm1: phase sets byte-identical, modes agree --------------------


def legacy_phase_sets(graph, policy):
    """The pre-rewrite `_phase_sets`, composed from the legacy pieces."""
    x_set = legacy_local_one_cuts(graph, policy.one_cut_radius)
    cuts = legacy_local_two_cuts(graph, policy.two_cut_radius, minimal=True)
    i_set = legacy_interesting_vertices_of_cuts(graph, cuts, policy.two_cut_radius)
    taken = x_set | i_set
    dominated = legacy_closed_neighborhood_of_set(graph, taken) if taken else set()
    undominated = set(graph.nodes) - dominated
    u_set = {
        u
        for u in dominated - taken
        if legacy_closed_neighborhood(graph, u) <= dominated
    }
    return x_set, i_set, u_set, undominated


def legacy_residual_components(graph, x_set, i_set, u_set, undominated):
    residual_nodes = set(graph.nodes) - x_set - i_set - u_set
    components = []
    for component in nx.connected_components(graph.subgraph(residual_nodes)):
        targets = undominated & set(component)
        if targets:
            components.append((set(component), targets))
    components.sort(key=lambda pair: repr(min(pair[0], key=repr)))
    return components


class TestAlgorithm1Pinned:
    @pytest.mark.parametrize("graph", JUST_GRAPHS, ids=IDS)
    def test_phase_sets_byte_identical(self, graph):
        policy = RadiusPolicy.practical()
        reduced, _ = legacy_remove_true_twins(graph)
        expected = legacy_phase_sets(reduced, policy)
        actual = _phase_sets(reduced, policy)
        assert actual == expected
        assert _residual_components(reduced, *actual) == (
            legacy_residual_components(reduced, *expected)
        )

    def test_fast_and_simulate_modes_agree(self):
        # The outerplanar and fan instances send decide_membership's
        # is_interesting_vertex calls on view graphs through the link
        # certificate's linked-link and hub paths.
        graphs = (
            gen.cycle(6),
            gen.ladder(4),
            gen.clique_with_pendants(4),
            random_outerplanar(40, 0),
            gen.fan(30),
        )
        for graph in graphs:
            fast = algorithm1(graph, mode="fast")
            simulated = algorithm1(graph, mode="simulate")
            assert fast.solution == simulated.solution


# -- cache invalidation ----------------------------------------------------


class TestDerivedCacheInvalidation:
    def test_ball_mask_cache_cleared_by_invalidate(self):
        graph = gen.cycle(8)
        assert local_one_cuts(graph, 2) == set(graph.nodes)  # cache warm
        graph.remove_edge(0, 1)
        graph.add_edge(0, 2)  # same node and edge count
        invalidate_kernel(graph)
        assert local_one_cuts(graph, 2) == legacy_local_one_cuts(graph, 2)
        assert local_two_cuts(graph, 2) == legacy_local_two_cuts(graph, 2)

    def test_minimal_two_cuts_cache_cleared_by_invalidate(self):
        graph = gen.cycle(6)
        assert minimal_two_cuts(graph) == legacy_minimal_two_cuts(graph)
        graph.remove_edge(0, 1)
        graph.add_edge(0, 3)
        invalidate_kernel(graph)
        assert minimal_two_cuts(graph) == legacy_minimal_two_cuts(graph)

    def test_minimal_two_cuts_cached_list_is_private(self):
        graph = gen.cycle(6)
        first = minimal_two_cuts(graph)
        first.clear()  # mutating the returned list must not poison the memo
        assert minimal_two_cuts(graph) == legacy_minimal_two_cuts(graph)

    def test_ball_masks_distinct_per_radius(self):
        graph = gen.cycle(12)
        assert local_one_cuts(graph, 5) == set(graph.nodes)
        assert local_one_cuts(graph, 6) == set()
