"""Tests for the benchmark harness itself (not for the program it measures)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import networkx as nx
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, stats  # noqa: E402
from perfbench.serve import ServeMixed  # noqa: E402
from perfbench.tracer import Hook, Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    EngineSim,
    Op,
    Phase,
    check_determinism,
    count_failures,
)


# -- percentile rule -------------------------------------------------------


def test_p90_needs_one_hundred_samples():
    assert stats.min_samples_for(90) == 100
    assert stats.min_samples_for(50) == 20
    assert not stats.supported(99, 90)
    assert stats.supported(100, 90)
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9


def test_slow_runs_go_on_until_p90_has_its_samples():
    assert stats.keep_timing(19.9, 500, 20)
    assert stats.keep_timing(25.0, 99, 20)
    assert not stats.keep_timing(25.0, 100, 20)
    assert not stats.keep_timing(40.0, 99, 20)


def test_nearest_rank_percentile_is_a_sample():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- self-time arithmetic ---------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _self_times(tracer):
    return {name: s for (_, name), s in ((k, v.self) for k, v in tracer.stats.items())}


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer((), clock=clock)
    a = tracer.enter("a")          # a: 0..10
    clock.now = 1.0
    b = tracer.enter("b")          # b: 1..8
    clock.now = 2.0
    c = tracer.enter("c")          # c: 2..5
    clock.now = 5.0
    tracer.exit(c)
    clock.now = 8.0
    tracer.exit(b)
    clock.now = 10.0
    tracer.exit(a)
    assert _self_times(tracer) == {"a": 3.0, "b": 4.0, "c": 3.0}
    spans = {span[1]: span for span in tracer.spans}
    assert spans["c"][4] == spans["b"][0]
    assert spans["b"][4] == spans["a"][0]
    assert spans["a"][4] is None


def test_self_time_of_sibling_spans_and_hot_children():
    clock = FakeClock()
    tracer = Tracer((), clock=clock)
    a = tracer.enter("a")          # a: 0..10
    clock.now = 1.0
    b = tracer.enter("b")          # b: 1..3
    clock.now = 3.0
    tracer.exit(b)
    clock.now = 4.0
    c = tracer.enter("c")          # c: 4..7 (hot: counted, no span kept)
    clock.now = 7.0
    tracer.exit(c, hot=True)
    clock.now = 10.0
    tracer.exit(a)
    assert _self_times(tracer) == {"a": 5.0, "b": 2.0, "c": 3.0}
    assert [span[1] for span in tracer.spans] == ["b", "a"]


# -- wrapper install and restore ---------------------------------------------


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in list(vars(module).items()):
                out[name, attr] = value
    for hook in layers.HOOKS:
        if "." in hook.attr:
            cls_name, _ = hook.attr.split(".")
            cls = getattr(sys.modules[hook.module], cls_name)
            out[hook.module, cls_name, "dict"] = dict(vars(cls))
    return out


def test_install_then_restore_leaves_every_binding_identical():
    import importlib

    import repro.api  # noqa: F401  (loads every layer module)

    # repro.core re-exports the function algorithm1 under its module's name.
    algorithm1_module = importlib.import_module("repro.core.algorithm1")
    local_cuts_module = importlib.import_module("repro.graphs.local_cuts")

    before = _bindings()
    original = local_cuts_module.local_two_cuts
    tracer = Tracer(layers.HOOKS)
    tracer.install()
    try:
        assert local_cuts_module.local_two_cuts is not original
        assert algorithm1_module.local_two_cuts is local_cuts_module.local_two_cuts
        assert algorithm1_module.local_two_cuts.__wrapped__ is original
    finally:
        tracer.restore()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key] and before[key] != after[key]]
    assert changed == []


def test_traced_algorithm1_records_layers():
    from repro.api import RunConfig, solve
    from repro.graphs.families import get_family

    graph = get_family("outerplanar").make(40, 1)
    tracer = Tracer(layers.HOOKS)
    tracer.install()
    try:
        with tracer.span("op", 0):
            report = solve(graph, "algorithm1", RunConfig(validate="valid"))
    finally:
        tracer.restore()
    assert report.valid
    assert tracer.total("graphs.local_cuts.local_two_cuts").calls == 1
    assert tracer.total("core.algorithm1").calls == 1
    assert tracer.total("analysis.domination.validate").calls == 1
    metrics = layers.tracer_metrics(tracer, 1)
    assert metrics["graphs.local_cuts.local_two_cuts_s"] > 0


def test_brute_force_inside_the_optimum_solver_is_optimum_time():
    calls = []
    clock = FakeClock()
    module = types.ModuleType("repro._perfbench_probe")
    module.inner = lambda: calls.append("inner")
    module.outer = lambda: module.inner()
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer(
            (Hook("outer", module.__name__, "outer"),
             Hook("inner", module.__name__, "inner", exclude_under="outer")),
            clock=clock,
        )
        tracer.install()
        try:
            module.outer()
            module.inner()
        finally:
            tracer.restore()
    finally:
        del sys.modules[module.__name__]
    assert calls == ["inner", "inner"]
    assert tracer.total("outer").calls == 1
    assert tracer.total("inner").calls == 1


# -- metric names ------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    names = [name for name, *_ in layers.END_TO_END + layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert stats.valid_metric_name(name), name
    assert all(1 <= len(unit) <= 16 for unit in layers.UNITS.values())


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(metric) for metric in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(metric) for metric in layers.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# -- failure counting ----------------------------------------------------------


def test_timed_out_simulate_is_an_outcome_failure():
    from repro.api import SimReport

    workload = EngineSim(0)
    workload.instances = [("path:4:0", nx.path_graph(4))]

    def op(op_id, spec, fault_free, **report):
        sim = SimReport(algorithm="greedy", problem="mds", model="local", **report)
        return Op(op_id, f"path:4:0:{spec}", latency=0.1,
                  info={"inst": 0, "report": sim, "fault_free": fault_free})

    timed_out = op(0, "greedy_churn", False, outputs={1: True, 2: True},
                   rounds=1000, timed_out=True)
    undominated = op(1, "greedy", True, outputs={0: True, 1: False})
    good = op(2, "greedy", True, outputs={1: True, 2: True})
    phase = Phase([timed_out, undominated, good], wall=1.0)
    workload.check(phase)
    assert timed_out.outcome == "timed_out after 1000 rounds"
    assert timed_out.cause is None
    assert undominated.cause == "fault-free simulate output does not dominate"
    assert good.cause is None and good.outcome is None
    assert count_failures(phase.ops) == (1, 1)


def test_digest_mismatch_is_hard_on_one_path_and_an_outcome_across_paths():
    def op(op_id, digests):
        return Op(op_id, "tree:48:1", latency=0.1, digest="".join(digests.values()),
                  info={"alg_digests": digests})

    seen: dict = {}
    pool = op(0, {"d2": "a", "matching_vc": "b"})
    check_determinism([pool], seen, "workers=2", path="pool")
    pool_again = op(1, {"d2": "a", "matching_vc": "c"})
    check_determinism([pool_again], seen, "workers=2", path="pool")
    serial = op(2, {"d2": "a", "matching_vc": "d"})
    serial_again = op(3, {"d2": "a", "matching_vc": "d"})
    check_determinism([serial, serial_again], seen, "workers=1", path="serial")
    assert pool.cause is None and pool.outcome is None
    assert pool_again.cause == "digest mismatch with workers=2 op 0"
    assert serial.cause is None
    assert serial.outcome == ("output depends on the solve_many path: "
                              "matching_vc differ from workers=2 op 0")
    assert serial_again.outcome == serial.outcome
    assert count_failures([pool, pool_again, serial, serial_again]) == (1, 2)


class _Response:
    def __init__(self, status, body):
        self.status = status
        self._body = body

    def read(self):
        return self._body


class _Connection:
    def __init__(self, responses):
        self.responses = list(responses)

    def request(self, method, path, body=None, headers=None):
        pass

    def getresponse(self):
        return self.responses.pop(0)


def test_http_429_is_a_failed_op():
    workload = ServeMixed(0, ROOT)
    conn = _Connection([_Response(429, b'{"error": "queue full", "retry_after": 1}')])
    record = workload._job(conn, {"kind": "solve"})
    assert record["rejected"] == 1
    assert record["cause"] == "HTTP 429: queue full"
    assert record["latency"] is None
    ops = [Op(0, "small:x", cause=record["cause"]), Op(1, "small:y", latency=0.1)]
    assert count_failures(ops) == (1, 0)


def test_failed_job_state_is_a_failed_op():
    workload = ServeMixed(0, ROOT)
    status = {"id": "j000001", "state": "failed", "error": "boom", "wall_time": 0.1}
    conn = _Connection([
        _Response(202, json.dumps(status | {"state": "queued"}).encode()),
        _Response(200, json.dumps(status).encode()),
    ])
    record = workload._job(conn, {"kind": "solve"})
    assert record["cause"] == "job failed: boom"


# -- the driver ----------------------------------------------------------------


def test_driver_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alg1_sparse",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no program source" in done.stderr
