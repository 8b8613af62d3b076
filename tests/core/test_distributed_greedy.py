"""Tests for the distributed greedy baseline (centralized + protocol)."""

import networkx as nx

from repro.analysis.domination import is_dominating_set
from repro.api import SimulationSpec, simulate
from repro.core.distributed_greedy import distributed_greedy_dominating_set
from repro.graphs import generators as gen
from repro.graphs.random_families import random_outerplanar, random_tree
from repro.solvers.exact import domination_number


class TestCentralized:
    def test_valid_on_zoo(self, small_zoo):
        for g in small_zoo:
            result = distributed_greedy_dominating_set(g)
            assert is_dominating_set(g, result.solution)

    def test_star_one_phase(self, star6):
        result = distributed_greedy_dominating_set(star6)
        assert result.solution == {0}
        assert result.metadata["phases"] == 1

    def test_quality_near_greedy(self, small_zoo):
        import math

        for g in small_zoo:
            result = distributed_greedy_dominating_set(g)
            delta = max(dict(g.degree).values())
            assert len(result.solution) <= (2 + math.log(delta + 1)) * domination_number(g)

    def test_phases_grow_on_paths(self):
        # A long path needs several phases (local maxima thin out).
        short = distributed_greedy_dominating_set(gen.path(6))
        long_ = distributed_greedy_dominating_set(gen.path(40))
        assert long_.metadata["phases"] >= short.metadata["phases"]

    def test_rounds_are_four_per_phase(self, fan5):
        result = distributed_greedy_dominating_set(fan5)
        assert result.rounds == 4 * result.metadata["phases"]


class TestProtocol:
    def test_agrees_with_centralized(self, small_zoo):
        for g in small_zoo:
            central = distributed_greedy_dominating_set(g)
            assert simulate(g, "greedy").chosen == central.solution, g

    def test_agrees_on_random_families(self):
        for seed in range(3):
            for g in (random_tree(16, seed), random_outerplanar(12, seed)):
                assert (
                    simulate(g, "greedy").chosen
                    == distributed_greedy_dominating_set(g).solution
                )

    def test_single_vertex(self):
        g = nx.Graph()
        g.add_node(0)
        assert simulate(g, "greedy").chosen == {0}

    def test_complete_graph(self):
        g = nx.complete_graph(7)
        assert len(simulate(g, "greedy").chosen) == 1

    def test_identifier_dependence_is_tie_break_only(self, cycle6):
        # shuffling ids may rotate which vertices win ties, but the
        # output size class and validity are invariant.
        base = simulate(cycle6, "greedy").chosen
        for seed in (1, 2):
            spec = SimulationSpec(algorithm="greedy", ids="shuffled", seed=seed)
            other = simulate(cycle6, spec).chosen
            assert is_dominating_set(cycle6, other)
            assert abs(len(other) - len(base)) <= 1

    def test_rounds_recorded(self, path5):
        assert simulate(path5, "greedy").rounds >= 4
