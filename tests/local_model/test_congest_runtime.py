"""Tests for CONGEST enforcement on the simulation engine."""

import pytest

from repro.api import SimulationSpec, simulate
from repro.graphs import generators as gen
from repro.local_model.engine import (
    CongestScheduler,
    MessageTooLargeError,
    SimulationEngine,
)
from repro.local_model.gather import GatherAlgorithm
from repro.local_model.network import Network


def _congest(graph, budget):
    return SimulationEngine(Network(graph), CongestScheduler(budget))


class TestEnforcement:
    def test_degree_rule_fits(self, cycle6):
        spec = SimulationSpec(algorithm="degree_two", model="congest", budget=4)
        report = simulate(cycle6, spec)
        assert set(report.outputs) == set(cycle6.nodes)

    def test_gathering_rejected(self):
        with pytest.raises(MessageTooLargeError):
            _congest(gen.ladder(8), 4).run(lambda: GatherAlgorithm(3))

    def test_d2_needs_neighborhood_sized_messages(self):
        # D2 sends closed neighborhoods: Θ(Δ) identifiers.  With budget
        # below Δ+2 it must fail on a star; with a degree-sized budget
        # it runs.
        g = gen.star(8)
        with pytest.raises(MessageTooLargeError):
            simulate(g, SimulationSpec(algorithm="d2", model="congest", budget=3))
        report = simulate(g, SimulationSpec(algorithm="d2", model="congest", budget=32))
        assert set(report.outputs) == set(g.nodes)

    def test_error_carries_details(self):
        with pytest.raises(MessageTooLargeError) as excinfo:
            _congest(gen.ladder(6), 1).run(lambda: GatherAlgorithm(2))
        assert excinfo.value.units > excinfo.value.budget

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            CongestScheduler(0)
        with pytest.raises(ValueError):
            SimulationSpec(algorithm="d2", model="congest", budget=0)

    def test_network_restored_after_failure(self):
        # Admission checks the whole round before delivering anything,
        # so a rejected round leaves every inbox untouched.
        network = Network(gen.ladder(6))
        engine = SimulationEngine(network, CongestScheduler(1))
        with pytest.raises(MessageTooLargeError):
            engine.run(lambda: GatherAlgorithm(2))
        assert all(node.inbox == {} for node in network.nodes.values())
