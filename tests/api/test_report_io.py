"""RunConfig / RunReport JSON round-trips through repro.io."""

import hashlib
import json

import networkx as nx
import pytest

from repro.api import RunConfig, RunReport, solve, solve_many
from repro.core.radii import RadiusPolicy
from repro.core.results import AlgorithmResult
from repro.graphs.families import get_family
from repro.io import (
    load_run_reports,
    run_config_from_dict,
    run_config_to_dict,
    run_report_from_dict,
    run_report_to_dict,
    save_run_reports,
)


def _roundtrip(report):
    return run_report_from_dict(json.loads(json.dumps(run_report_to_dict(report))))


class TestConfigRoundtrip:
    def test_default_config(self):
        config = RunConfig()
        assert run_config_from_dict(run_config_to_dict(config)) == config

    def test_config_with_policy(self):
        config = RunConfig(
            policy=RadiusPolicy.practical(2, 4),
            mode="simulate",
            validate="ratio",
            solver="bnb",
            seed=7,
        )
        back = run_config_from_dict(json.loads(json.dumps(run_config_to_dict(config))))
        assert back == config
        assert back.policy.label == config.policy.label


class TestReportRoundtrip:
    @pytest.mark.parametrize(
        "graph, meta",
        [
            (get_family("ladder").make(12, 0), {"family": "ladder", "size": 12, "seed": 0}),
            # Tuple vertex labels: JSON lists must come back hashable.
            (nx.grid_2d_graph(3, 3), {"family": "grid", "size": 9}),
        ],
        ids=["ladder", "grid"],
    )
    def test_full_report_roundtrip(self, graph, meta):
        report = solve(graph, "algorithm1", RunConfig(validate="ratio"), meta=meta)
        back = _roundtrip(report)
        assert back.algorithm == report.algorithm
        assert back.problem == report.problem
        assert back.instance == report.instance
        assert back.solution == report.solution
        assert back.result.phases == report.result.phases
        assert back.result.round_breakdown == report.result.round_breakdown
        assert back.config == report.config
        assert back.valid == report.valid
        assert back.optimum_size == report.optimum_size
        assert back.ratio == report.ratio

    def test_unvalidated_report_roundtrip(self):
        graph = get_family("fan").make(10, 0)
        report = solve(graph, "take_all", RunConfig(validate="none"))
        back = _roundtrip(report)
        assert back.valid is None and back.ratio is None
        assert back.solution == report.solution

    def test_save_load_batch(self, tmp_path):
        instances = [
            ({"family": "fan", "size": 10}, get_family("fan").make(10, 0)),
            ({"family": "tree", "size": 9}, get_family("tree").make(9, 1)),
        ]
        reports = solve_many(instances, ["d2", "degree_two"], RunConfig(validate="ratio"))
        path = tmp_path / "reports.json"
        save_run_reports(reports, path)
        back = load_run_reports(path)
        assert [r.solution for r in back] == [r.solution for r in reports]
        assert [r.instance for r in back] == [r.instance for r in reports]
        assert [r.ratio for r in back] == [r.ratio for r in reports]


def _pin_reports():
    """Hand-built reports covering every layout rule of the run codec."""
    policy_report = RunReport(
        algorithm="algorithm1",
        problem="mds",
        instance={"n": 4, "m": 3, "family": "path", "opaque": object()},
        result=AlgorithmResult(
            name="algorithm1",
            solution={3, 1, 2},
            rounds=5,
            phases={"two_cut": {3, 2}, "one_cut": {1}},
            round_breakdown={"gather": 4, "decide": 1},
            metadata={"note": "pinned", "dropped": object()},
        ),
        config=RunConfig(
            policy=RadiusPolicy.practical(2, 4),
            mode="simulate",
            validate="ratio",
            solver="bnb",
            opt_cache=False,
            seed=7,
        ),
        wall_time=0.125,
        valid=True,
        optimum_size=2,
        ratio=1.5,
    )
    bare_report = RunReport(algorithm="take_all", problem="mvc")
    tuple_report = RunReport(
        algorithm="greedy",
        problem="mds",
        instance={"n": 9, "m": 12},
        result=AlgorithmResult(
            name="greedy",
            solution={(1, 1), (0, 2), (2, 0)},
            rounds=3,
            phases={"greedy": {(2, 0), (1, 1)}},
        ),
        valid=True,
    )
    return {"policy": policy_report, "bare": bare_report, "tuple_labels": tuple_report}


#: sha256 of ``json.dumps(run_report_to_dict(report))`` for each pinned
#: report: the wire layout that sweep manifests, serve results and saved
#: report files depend on.  A codec change must reproduce these bytes.
RUN_REPORT_PINS = {
    "policy": "1f8f76a79a1155c8e8c05fda77e80a7b1e6a27f34156365e8c248b7ff7da399e",
    "bare": "9e1d1a543de0fbc2cecfbe78a8185f7fd3f80f6424af0b9dac46cae1f8e36c44",
    "tuple_labels": "a52ed9348a349c551f2a8d973338c5c92600aebc50e6d04bf1256090f9706fc2",
}


@pytest.mark.parametrize("case", sorted(RUN_REPORT_PINS))
def test_run_report_byte_layout_pin(case):
    text = json.dumps(run_report_to_dict(_pin_reports()[case]))
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_REPORT_PINS[case]
    # ... and the decoder reads those bytes back to the same record.
    assert json.dumps(run_report_to_dict(run_report_from_dict(json.loads(text)))) == text
