"""Tests for the `repro.api.simulate` front door and its JSON round-trip."""

import dataclasses
import hashlib
import json

import networkx as nx
import pytest

from repro.analysis.domination import is_dominating_set
from repro.api import (
    FaultPlan,
    SimReport,
    SimulationSpec,
    UnknownAlgorithmError,
    UnsupportedModeError,
    engine_algorithm_names,
    simulate,
    simulate_many,
    solve,
)
from repro.graphs import generators as gen
from repro.io import (
    byzantine_plan_from_dict,
    churn_plan_from_dict,
    fault_plan_from_dict,
    load_sim_reports,
    save_sim_reports,
    sim_report_from_dict,
    sim_report_to_dict,
    sim_spec_from_dict,
    sim_spec_to_dict,
    to_dict,
)
from repro.local_model.adversary import ByzantinePlan, ChurnEvent, ChurnPlan
from repro.local_model.engine import EngineResult, MessageTooLargeError, SimulationEngine
from repro.local_model.instrumentation import RoundStats
from repro.local_model.network import Network
from repro.local_model.protocols import D2Protocol


class TestSimulate:
    def test_d2_protocol_matches_fast_path(self, fan5):
        report = simulate(fan5, "d2")
        assert report.rounds == 3
        assert report.chosen == solve(fan5, "d2").solution
        assert is_dominating_set(fan5, report.chosen)

    def test_spec_capabilities_enforced(self, fan5):
        with pytest.raises(UnsupportedModeError, match="no message-passing protocol"):
            simulate(fan5, "exact")
        with pytest.raises(UnknownAlgorithmError):
            simulate(fan5, "nope")

    def test_engine_capable_registry_flags(self):
        assert set(engine_algorithm_names()) == {
            "d2",
            "degree_two",
            "greedy",
            "take_all",
        }

    def test_zero_node_graph_rejects_crash_plan(self):
        # the engine's plan-vertex validation must hold on the
        # engine-less zero-node path too, with the engine's messages
        cases = [
            ({"faults": FaultPlan(crashed=(0,))}, "crashed vertices"),
            (
                {"faults": FaultPlan(crash_schedule=((5, 2),))},
                "scheduled-crash vertices never in the network",
            ),
            (
                {"byzantine": ByzantinePlan(behaviors=((5, "silent"),))},
                "byzantine vertices never in the network",
            ),
        ]
        for fields, message in cases:
            spec = SimulationSpec(algorithm="d2", **fields)
            with pytest.raises(ValueError, match=message):
                simulate(nx.Graph(), spec)
            if "byzantine" in fields or fields["faults"].crash_schedule:
                # the same plan on a non-empty graph fails the same way
                with pytest.raises(ValueError, match=message):
                    simulate(nx.path_graph(3), spec)

    def test_report_carries_every_engine_counter(self):
        # SimReport copies EngineResult field by field: each engine
        # counter must arrive under its own name, with its own value
        graph = gen.ladder(5)
        faults = FaultPlan(drop_probability=0.2, crash_schedule=((3, 2),))
        spec = SimulationSpec(algorithm="d2", trace="full", seed=4, faults=faults)
        report = simulate(graph, spec)
        engine = SimulationEngine(
            Network(graph), max_rounds=spec.max_rounds, faults=faults, trace="full", seed=4
        )
        result = engine.run(D2Protocol)
        for f in dataclasses.fields(EngineResult):
            assert getattr(report, f.name) == getattr(result, f.name), f.name
        assert result.dropped_messages > 0 and result.crashed == (3,)

    def test_zero_node_graph_is_empty_report(self):
        report = simulate(nx.Graph(), "d2")
        assert report.rounds == 0
        assert report.outputs == {}
        assert report.chosen == set()
        assert report.instance == {"n": 0, "m": 0}
        # and it still round-trips
        back = sim_report_from_dict(sim_report_to_dict(report))
        assert sim_report_to_dict(back) == sim_report_to_dict(report)

    def test_congest_model_budget(self, star6):
        # D2 ships closed neighborhoods: budget below Δ+2 must fail with
        # an actionable error, a degree-sized budget runs.
        with pytest.raises(MessageTooLargeError) as excinfo:
            simulate(star6, SimulationSpec(algorithm="d2", model="congest", budget=3))
        assert excinfo.value.round_index is not None
        assert excinfo.value.receiver is not None
        report = simulate(
            star6, SimulationSpec(algorithm="d2", model="congest", budget=32)
        )
        assert report.chosen == solve(star6, "d2").solution

    def test_identifier_schemes(self, ladder5):
        expected = solve(ladder5, "d2").solution
        for scheme in ("identity", "shuffled", "spread"):
            report = simulate(
                ladder5, SimulationSpec(algorithm="d2", ids=scheme, seed=3)
            )
            assert is_dominating_set(ladder5, report.chosen)
            assert len(report.chosen) == len(expected)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown model"):
            SimulationSpec(algorithm="d2", model="quantum")
        with pytest.raises(ValueError, match="trace policy"):
            SimulationSpec(algorithm="d2", trace="loud")
        with pytest.raises(ValueError, match="budget"):
            SimulationSpec(algorithm="d2", budget=0)
        with pytest.raises(ValueError, match="identifier scheme"):
            SimulationSpec(algorithm="d2", ids="random")

    def test_round_limit_trips_raising(self, path5):
        with pytest.raises(RuntimeError, match="did not halt"):
            simulate(path5, SimulationSpec(algorithm="greedy", max_rounds=2))


class TestFaultRuns:
    def test_fault_plan_completes_and_roundtrips(self, fan5, tmp_path):
        spec = SimulationSpec(
            algorithm="d2",
            seed=5,
            faults=FaultPlan(drop_probability=0.2, crashed=(0,)),
        )
        report = simulate(fan5, spec, meta={"family": "fan", "size": 5})
        assert report.rounds == 3
        assert 0 not in report.outputs
        assert report.crashed == (0,)
        assert report.dropped_messages > 0
        assert report.swallowed_messages > 0

        payload = sim_report_to_dict(report)
        back = sim_report_from_dict(json.loads(json.dumps(payload)))
        assert sim_report_to_dict(back) == payload
        assert back.spec == spec
        assert back.chosen == report.chosen

        path = tmp_path / "sim.json"
        save_sim_reports([report], path)
        assert [r.outputs for r in load_sim_reports(path)] == [report.outputs]

    def test_tuple_vertex_graph_roundtrips(self):
        # JSON has no tuples: vertex labels like grid coordinates must
        # come back hashable (lists are re-tupled on load).
        graph = nx.grid_2d_graph(3, 3)
        report = simulate(
            graph,
            SimulationSpec(algorithm="d2", faults=FaultPlan(crashed=((0, 0),))),
        )
        back = sim_report_from_dict(json.loads(json.dumps(sim_report_to_dict(report))))
        assert back.outputs == report.outputs
        assert back.crashed == ((0, 0),)
        assert back.chosen == report.chosen
        # the spec's fault plan must come back usable too
        assert back.spec.faults.crashed == ((0, 0),)
        rerun = simulate(graph, back.spec)
        assert rerun.outputs == report.outputs

    def test_spec_roundtrip(self):
        spec = SimulationSpec(
            algorithm="degree_two",
            model="congest",
            budget=6,
            max_rounds=77,
            trace="full",
            seed=9,
            faults=FaultPlan(drop_probability=0.5, crashed=(1, 2)),
            ids="spread",
        )
        assert sim_spec_from_dict(json.loads(json.dumps(sim_spec_to_dict(spec)))) == spec


class TestSimulateMany:
    def _instances(self):
        return [
            ({"family": "fan", "size": 8}, gen.fan(8)),
            ({"family": "ladder", "size": 5}, gen.ladder(5)),
            ({"family": "tree", "size": 9}, gen.caterpillar(3, 2)),
        ]

    def test_workers_byte_identical_json(self):
        specs = [
            SimulationSpec(algorithm="d2", trace="full"),
            SimulationSpec(
                algorithm="degree_two",
                seed=2,
                faults=FaultPlan(drop_probability=0.1),
            ),
        ]
        serial = simulate_many(self._instances(), specs)
        parallel = simulate_many(self._instances(), specs, workers=4)

        def dump(reports):
            return json.dumps([sim_report_to_dict(r) for r in reports])

        assert dump(serial) == dump(parallel)

    def test_single_spec_shorthand_and_order(self):
        reports = simulate_many(self._instances(), "d2")
        assert [r.instance["family"] for r in reports] == ["fan", "ladder", "tree"]
        assert all(r.algorithm == "d2" for r in reports)

    def test_capability_check_fails_fast(self):
        with pytest.raises(UnsupportedModeError):
            simulate_many(self._instances(), ["d2", "exact"])

    def test_empty_batch(self):
        assert simulate_many([], "d2") == []


class TestAdversarialSpecs:
    def _spec(self, **overrides):
        from repro.api import ByzantinePlan, ChurnEvent, ChurnPlan

        base = dict(
            algorithm="d2",
            seed=3,
            max_rounds=64,
            churn=ChurnPlan(
                events=(ChurnEvent(2, "del_edge", 0, 1),), rate=0.2, until=4
            ),
            byzantine=ByzantinePlan(((3, "lie"), (5, "silent"))),
        )
        base.update(overrides)
        return SimulationSpec(**base)

    def test_adversarial_spec_roundtrip(self):
        spec = self._spec(model="async", delay=3)
        back = sim_spec_from_dict(json.loads(json.dumps(sim_spec_to_dict(spec))))
        assert back == spec

    def test_adversarial_report_roundtrip(self):
        report = simulate(gen.fan(8), self._spec())
        payload = json.loads(json.dumps(sim_report_to_dict(report)))
        back = sim_report_from_dict(payload)
        assert sim_report_to_dict(back) == sim_report_to_dict(report)
        assert back.suspicion == report.suspicion
        assert back.failed == report.failed

    def test_trivial_plans_leave_no_trace_in_json(self):
        from repro.api import ByzantinePlan, ChurnPlan

        spec = SimulationSpec(
            algorithm="d2", churn=ChurnPlan(), byzantine=ByzantinePlan()
        )
        payload = sim_spec_to_dict(spec)
        assert "churn" not in payload
        assert "byzantine" not in payload
        assert "delay" not in payload
        report_payload = sim_report_to_dict(simulate(gen.fan(8), spec))
        for key in ("suspicion", "failed", "timed_out", "churn_events"):
            assert key not in report_payload

    def test_degradation_fault_free_twin_agrees(self):
        from repro.api import adversarial_degradation

        out = adversarial_degradation(
            gen.fan(10), SimulationSpec(algorithm="d2")
        )
        degradation = out["degradation"]
        assert degradation["agree"] is True
        assert degradation["valid"] is True
        assert degradation["ratio"] == degradation["baseline_ratio"]

    def test_degradation_measures_the_final_graph(self):
        from repro.api import ChurnEvent, ChurnPlan, adversarial_degradation

        graph = gen.path(6)
        spec = SimulationSpec(
            algorithm="d2",
            max_rounds=64,
            churn=ChurnPlan(events=(ChurnEvent(1, "leave", 5),)),
        )
        out = adversarial_degradation(graph, spec)
        assert out["degradation"]["final_n"] == 5
        # The input graph is never mutated by the measurement.
        assert graph.number_of_nodes() == 6

    def test_adversarial_batch_workers_byte_identical(self):
        specs = [self._spec(), self._spec(model="adversarial", seed=5)]
        graphs = [gen.fan(8), gen.cycle(9)]
        serial = simulate_many(graphs, specs)
        parallel = simulate_many(graphs, specs, workers=4)

        def dump(reports):
            return json.dumps([sim_report_to_dict(r) for r in reports])

        assert dump(serial) == dump(parallel)


def _pin_records():
    """Hand-built specs, plans and reports covering every layout rule of
    the simulation codec, with the decoder that reads each back."""
    every_plan = SimulationSpec(
        algorithm="d2",
        model="async",
        budget=6,
        max_rounds=64,
        trace="full",
        seed=3,
        faults=FaultPlan(
            drop_probability=0.25,
            crashed=(9, 4),
            crash_schedule=((6, 3), (5, 3), (7, 1)),
        ),
        ids="spread",
        churn=ChurnPlan(
            events=(
                ChurnEvent(2, "del_edge", 0, 1),
                ChurnEvent(2, "add_edge", 3, 8),
                ChurnEvent(3, "join", 10, 4),
                ChurnEvent(3, "join", 11),
                ChurnEvent(5, "leave", 2),
            ),
            rate=0.2,
            until=4,
        ),
        byzantine=ByzantinePlan(((8, "silent"), (3, "lie"))),
        delay=3,
    )
    trivial_plans = SimulationSpec(
        algorithm="greedy",
        faults=FaultPlan(),
        churn=ChurnPlan(),
        byzantine=ByzantinePlan(),
    )
    full_trace = SimReport(
        algorithm="d2",
        problem="mds",
        model="local",
        instance={"n": 5, "m": 4, "family": "star", "opaque": object()},
        spec=SimulationSpec(algorithm="d2", trace="full"),
        outputs={3: False, 0: True, 1: {"k": [1, 2]}, 2: object(), 4: None},
        rounds=3,
        total_messages=16,
        total_payload=40,
        crashed=(),
        round_stats=[RoundStats(1, 8, 16), RoundStats(2, 8, 24), RoundStats(3, 0, 0)],
    )
    adversarial = SimReport(
        algorithm="d2",
        problem="mds",
        model="async",
        instance={"n": 12, "m": 11},
        spec=every_plan,
        outputs={1: True, 0: False},
        rounds=9,
        total_messages=30,
        total_payload=70,
        dropped_messages=4,
        swallowed_messages=2,
        crashed=(9, 4, 7),
        delayed_messages=5,
        churn_events=6,
        churn_lost_messages=1,
        suspicion={
            8: {"behavior": "silent", "deviations": 0, "detections": 2},
            3: {"behavior": "lie", "deviations": 4, "detections": 1},
        },
        failed=(6, 2),
        timed_out=True,
    )
    tuple_labels = SimReport(
        algorithm="d2",
        problem="mds",
        model="local",
        instance={"n": 9, "m": 12},
        spec=SimulationSpec(
            algorithm="d2",
            faults=FaultPlan(crashed=((0, 0),), crash_schedule=(((2, 2), 2),)),
            churn=ChurnPlan(events=(ChurnEvent(1, "del_edge", (0, 1), (1, 1)),)),
            byzantine=ByzantinePlan((((1, 0), "babble"),)),
        ),
        outputs={(1, 1): True, (0, 2): False, (1, 0): None},
        rounds=3,
        crashed=((2, 2), (0, 0)),
        suspicion={(1, 0): {"behavior": "babble", "deviations": 1, "detections": 0}},
        failed=((0, 1),),
    )
    return {
        "spec_every_plan": (every_plan, sim_spec_from_dict),
        "spec_trivial_plans": (trivial_plans, sim_spec_from_dict),
        "plan_trivial_faults": (FaultPlan(), fault_plan_from_dict),
        "plan_trivial_churn": (ChurnPlan(), churn_plan_from_dict),
        "plan_trivial_byzantine": (ByzantinePlan(), byzantine_plan_from_dict),
        "plan_none": (None, fault_plan_from_dict),
        "report_full_trace": (full_trace, sim_report_from_dict),
        "report_adversarial": (adversarial, sim_report_from_dict),
        "report_tuple_labels": (tuple_labels, sim_report_from_dict),
    }


#: sha256 of ``json.dumps(payload)`` for each pinned simulation payload:
#: the wire layout that sweep manifest digests, serve results and saved
#: report files depend on.  A codec change must reproduce these bytes.
SIM_PINS = {
    "spec_every_plan": "4529f86d351c83ea7293c5fdd14da41e0f907ba52aed088175526af9d5b3b337",
    "spec_trivial_plans": "2a9e97403555b59d07d208e5c9a167e45f1fff200051f8990e78f854999beef2",
    "plan_trivial_faults": "f896cf16f9c1fbad0162448b5ccb241e101d679160f454f0908ddffd8f33883a",
    "plan_trivial_churn": "4e7e5477b0284352bdfc3d93fd624ffef6cb02dd91b9c2d1065de576b95bd782",
    "plan_trivial_byzantine": "8be547e799995675d768347bce6f9d64ac413b940a4bf1290396c82a5032c355",
    "plan_none": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
    "report_full_trace": "56a40597286b83962a8bd43aec51870581f31e933df3e9140a9a8eba0586215b",
    "report_adversarial": "0be1b6cd94ce677bbc0afb0b1ab6a1313a5331d44e9899569bc589f81800813e",
    "report_tuple_labels": "9136289f699fa77825af1a5c82850568bbf9dd9b24782ec00538983041b9aac6",
}


@pytest.mark.parametrize("case", sorted(SIM_PINS))
def test_simulation_byte_layout_pin(case):
    record, decode = _pin_records()[case]
    text = json.dumps(to_dict(record))
    assert hashlib.sha256(text.encode()).hexdigest() == SIM_PINS[case]
    # ... and the decoder reads those bytes back to the same record.
    assert json.dumps(to_dict(decode(json.loads(text)))) == text
