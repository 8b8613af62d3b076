"""The in-process workloads: ``alg1_sparse``, ``table1_ratio``, ``engine_sim``.

Every workload draws its instances from ``--seed`` alone, runs ops
through the public front doors (``repro.api.solve``, ``solve_many``,
``simulate``) until ``seconds`` have passed, and checks every output
after the timed phase with the program's own checkers.  Each op works
on a fresh copy of its instance, so no kernel or cache built by an
earlier op is reused, and two phases of one run do identical work.

Failures come in two kinds.  A *hard* failure is an op that raised,
returned an invalid output, or whose output digest differs from an
earlier output for the same input on the same execution path; hard
failures make ``correct`` false.  An *outcome* failure is an op that
finished with a valid output but did not reach its goal: a simulate op
that returned ``timed_out`` or whose nodes raised under churn, or a
``solve_many`` op whose output differs between the serial and the pool
path.  ``failed_fraction`` counts both.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import resource
import time
from dataclasses import dataclass, field

from perfbench import layers, stats
from perfbench.calibrate import Speed
from repro.analysis.domination import is_dominating_set
from repro.api import (
    RunConfig,
    SimulationSpec,
    parse_churn,
    parse_faults,
    simulate,
    solve,
    solve_many,
)
from repro.api.config import measured_ratio
from repro.graphs.families import FAMILIES, get_family
from repro.graphs.kernel import kernel_for
from repro.io import run_report_to_dict, sim_report_to_dict
from repro.solvers import opt_cache
from repro.solvers.vc import is_vertex_cover

clock = time.perf_counter


@dataclass
class Op:
    op: int
    key: str
    latency: float | None = None
    """Seconds; normalized to host speed on the serial workloads (see
    ``perfbench.calibrate``), with the raw value in ``info``."""
    digest: str | None = None
    cause: str | None = None
    """Hard failure: raised, invalid output, or digest mismatch."""
    outcome: str | None = None
    """Outcome failure: finished without reaching its goal (timed out,
    or an output that depends on the ``solve_many`` path)."""
    info: dict = field(default_factory=dict)


@dataclass
class Phase:
    ops: list
    wall: float
    """Wall time of the timed phase (normalized where ``latency`` is)."""
    extra: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(1 for op in self.ops if op.latency is not None)


def digest(payload) -> str:
    """Order-stable digest of report dicts, ignoring wall-clock fields."""
    return hashlib.sha256(
        json.dumps(_strip_wall_time(payload), sort_keys=True).encode()
    ).hexdigest()[:16]


def _strip_wall_time(payload):
    if isinstance(payload, list):
        return [_strip_wall_time(item) for item in payload]
    if isinstance(payload, dict):
        return {k: _strip_wall_time(v) for k, v in payload.items() if k != "wall_time"}
    return payload


def graph_digest(graphs) -> str:
    """Digest of an instance list: node count and sorted edges of each."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(repr((g.number_of_nodes(), sorted(map(sorted, g.edges)))).encode())
    return h.hexdigest()[:16]


def count_failures(ops) -> tuple[int, int]:
    """``(hard, outcome)`` failure counts; an op counts once, as hard if both."""
    hard = sum(1 for op in ops if op.cause)
    outcome = sum(1 for op in ops if op.cause is None and op.outcome)
    return hard, outcome


def check_determinism(ops, seen: dict, where: str, path: str | None = None) -> None:
    """Flag ops whose digest differs from an earlier output for the same key.

    On the same execution ``path`` a mismatch is a hard failure.  Across
    paths (``solve_many`` serially vs in a pool, whose workers rebuild
    each instance from its ``KernelWire``) both outputs were validated on
    their own, so a mismatch is an outcome failure naming the algorithms
    whose output depends on the path.
    """
    for op in ops:
        if op.digest is None:
            continue
        firsts = seen.setdefault(op.key, {})
        mine = (op.digest, f"{where} op {op.op}", op.info.get("alg_digests") or {})
        same = firsts.setdefault(path, mine)
        if op.cause is not None:
            continue
        if same[0] != op.digest:
            op.cause = f"digest mismatch with {same[1]}"
            continue
        for other, first in firsts.items():
            if other != path and first[0] != op.digest:
                differ = sorted(a for a in mine[2].keys() | first[2].keys()
                                if mine[2].get(a) != first[2].get(a))
                op.outcome = (f"output depends on the solve_many path: "
                              f"{', '.join(differ) or 'reports'} differ from {first[1]}")


def solution_is_valid(graph, problem: str, solution) -> bool:
    """The program's own checker for the problem kind, bound before tracing."""
    if problem == "mvc":
        return is_vertex_cover(graph, solution)
    return is_dominating_set(graph, solution)


def rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


class Workload:
    name = ""
    exclusions: tuple = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seen: dict = {}
        self.speed = Speed()

    def close(self) -> None:
        """Release what ``setup`` started (only serve starts anything)."""

    def phase(self, seconds: float, tracer=None) -> Phase:
        """Serial ops for ``seconds`` of op time; a speed probe before each."""
        ops = []
        before = opt_cache.snapshot()
        raw_wall = wall = 0.0
        k = 0
        while stats.keep_timing(raw_wall, len(ops), seconds):
            self.speed.probe()
            factor = self.speed.factor()
            start = clock()
            op = self.run_op(k, tracer)
            segment = clock() - start
            raw_wall += segment
            wall += segment * factor
            _normalize(op, factor)
            ops.append(op)
            k += 1
        after = opt_cache.snapshot()
        phase = Phase(ops, wall, extra={
            "raw_wall_s": raw_wall,
            "opt_hits": after["hits"] - before["hits"],
            "opt_misses": after["misses"] - before["misses"],
        })
        self.check(phase)
        check_determinism(ops, self.seen, "traced" if tracer else "untraced")
        return phase

    def peak_rss_mib(self) -> float:
        return rss_mib()


def _normalize(op: Op, factor: float) -> None:
    if op.latency is not None:
        op.info["raw_latency"] = op.latency
        op.latency *= factor


def _timed(tracer, op_id, fn):
    """Run ``fn`` under an op span (traced) and time it."""
    if tracer is None:
        start = clock()
        result = fn()
        return result, clock() - start
    with tracer.span("op", op_id):
        start = clock()
        result = fn()
        latency = clock() - start
    return result, latency


def _run_guarded(op: Op, tracer, fn):
    try:
        result, op.latency = _timed(tracer, op.op, fn)
    except Exception as error:  # noqa: BLE001 — a raising op is a recorded failure
        op.cause = f"raised {type(error).__name__}: {error}"[:300]
        return None
    return result


class Alg1Sparse(Workload):
    """Algorithm 1 through ``solve`` on bounded-degree K_{2,t}-minor-free graphs."""

    name = "alg1_sparse"
    FAMILIES = ("outerplanar", "cactus", "ladder", "ding")
    # A grid of sizes rather than a few, so op latencies form a continuum
    # and p50/p90 do not jump between size classes from seed to seed.
    # Small sizes repeat more often (outerplanar, the slowest family, half
    # as often), so one run times 100+ ops; the large sizes carry the
    # superlinear growth of the local-cut layer.
    SIZES = (250, 300, 350, 420, 500, 600, 700, 850, 1000, 1200, 1400, 1700, 2000)
    MAX_SIZE = {"outerplanar": 1000}
    REPEAT_SCALE = {"outerplanar": 550}
    RATIO_OPS, RATIO_MAX_SIZE = 48, 500
    CONFIG = RunConfig(validate="valid")
    exclusions = (
        ("hub families (star, fan, fan_flower, clique_pendants)",
         "Algorithm 1 is cubic on them (fan_flower: 1.0 s at n=200, 47.8 s at "
         "n=800), so one op would set the whole run; table1_ratio carries them "
         "at n <= 96"),
        ("n >= 8192",
         "kernel_for switches to the packed backend there and Algorithm 1 raises "
         "TypeError (ROADMAP item 1)"),
        ("outerplanar above n=1000",
         "2.7 s per op at n=2000 would cut one run below 100 timed ops"),
    )

    def repeats(self, family: str, size: int) -> int:
        return max(1, round(self.REPEAT_SCALE.get(family, 1100) / size))

    def setup(self) -> None:
        cycle = []
        for f, family in enumerate(self.FAMILIES):
            for i, size in enumerate(self.SIZES):
                if size > self.MAX_SIZE.get(family, size):
                    continue
                # Spread each cell's repeats evenly over the cycle, at a
                # golden-ratio offset so cells do not bunch up.
                offset = ((i * len(self.FAMILIES) + f) * 0.618034) % 1
                repeats = self.repeats(family, size)
                for k in range(repeats):
                    cycle.append(((k + offset) / repeats, size, family,
                                  self.rng.randrange(1 << 30)))
        self.sequence = []
        for _, size, family, inst_seed in sorted(cycle):
            graph = get_family(family).make(size, inst_seed)
            self.sequence.append((f"{family}:{size}:{inst_seed}", size, graph))
        self.graphs = {key: graph for key, _, graph in self.sequence}
        self.instance_digest = graph_digest(self.graphs.values())
        self.run_op(-1, None)  # warm-up

    def run_op(self, k: int, tracer) -> Op:
        key, size, graph = self.sequence[k % len(self.sequence)]
        op = Op(k, key, info={"size": size, "n": graph.number_of_nodes()})
        g = graph.copy()
        report = _run_guarded(op, tracer, lambda: solve(g, "algorithm1", self.CONFIG))
        op.info["report"] = report
        return op

    def check(self, phase: Phase) -> None:
        for op in phase.ops:
            report = op.info.pop("report", None)
            if report is None:
                continue
            op.info["size_alg"] = report.size
            op.info["alg_s"] = report.wall_time
            graph = self.graphs[op.key]
            if report.valid is not True or not is_dominating_set(graph, report.solution):
                op.cause = "algorithm1 output is not a dominating set"
            op.digest = digest(run_report_to_dict(report))

    def ratio_mean(self, phase: Phase) -> float:
        """Mean |ALG|/|OPT| over the first ``RATIO_OPS`` ops' instances up to
        ``RATIO_MAX_SIZE`` (larger exact optima would dominate run time)."""
        sizes = {
            op.key: op.info["size_alg"]
            for op in phase.ops
            if op.op < self.RATIO_OPS and op.info["size"] <= self.RATIO_MAX_SIZE
            and "size_alg" in op.info
        }
        return stats.mean(
            measured_ratio(size, opt_cache.optimum_size(self.graphs[key]))
            for key, size in sizes.items()
        )

    def layer_metrics(self, phase: Phase, tracer, untraced: Phase) -> dict:
        out = layers.tracer_metrics(tracer, len(phase.ops))
        out["api.algorithms.algorithm1_s"] = stats.mean(
            op.info.get("alg_s", 0.0) for op in phase.ops
        )
        out["graphs.local_cuts.per_vertex_growth"] = self._growth(phase, tracer)
        out.update(_opt_counters(tracer, phase))
        return out

    def _growth(self, phase: Phase, tracer) -> float:
        """``local_two_cuts`` s/vertex at the largest size over the smallest.

        Taken per family over the families run at both sizes, then
        averaged, so the family mix of each size does not bias it.
        """
        per_op = tracer.per_op("graphs.local_cuts.local_two_cuts")
        cells: dict = {}
        for op in phase.ops:
            if op.op in per_op:
                family = op.key.split(":")[0]
                cells.setdefault((family, op.info["size"]), []).append(
                    per_op[op.op].self / op.info["n"]
                )
        low, high = min(self.SIZES), max(self.SIZES)
        growth = [
            stats.mean(cells[family, high]) / stats.mean(cells[family, low])
            for family in self.FAMILIES
            if (family, high) in cells and (family, low) in cells
        ]
        return stats.mean(growth)


def _opt_counters(tracer, phase: Phase) -> dict:
    hits, misses = phase.extra.get("opt_hits", 0), phase.extra.get("opt_misses", 0)
    ops = max(len(phase.ops), 1)
    return {
        "solvers.opt_cache.hits": hits / ops,
        "solvers.opt_cache.misses": misses / ops,
        "solvers.opt_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


class Table1Ratio(Workload):
    """The Table 1 ratio batch: ``solve_many`` over all families, nine algorithms."""

    name = "table1_ratio"
    SIZES = (24, 48, 72, 96)
    SEEDS = 2
    SUITES = 6
    """Each batch runs a fresh suite; after ``SUITES`` batches they repeat."""
    WORKERS = 2
    PROBES = 5
    CONFIG = RunConfig(validate="ratio")
    exclusions = (
        ("algorithm2, exact, exact_vc",
         "not among the nine fast Table 1 algorithms (exact solvers gather the "
         "whole graph)"),
    )

    def setup(self) -> None:
        self.suites = []
        for _ in range(self.SUITES):
            suite = []
            for family in FAMILIES:
                for size in self.SIZES:
                    for _ in range(self.SEEDS):
                        inst_seed = self.rng.randrange(1 << 30)
                        meta = {"family": family, "size": size, "seed": inst_seed}
                        suite.append((meta, get_family(family).make(size, inst_seed)))
            self.suites.append(suite)
        self.instance_digest = graph_digest(g for suite in self.suites for _, g in suite)
        self.workers = self.WORKERS
        self._batch(self.suites[0][:4], self.workers)  # warm-up

    def _batch(self, pairs, workers):
        fresh = [(meta, graph.copy()) for meta, graph in pairs]
        return solve_many(fresh, layers.TABLE1_ALGORITHMS, self.CONFIG, workers=workers)

    def phase(self, seconds: float, tracer=None) -> Phase:
        workers = 1 if tracer is not None else self.workers
        per_instance = len(layers.TABLE1_ALGORITHMS)
        ops, batches = [], 0
        before = opt_cache.snapshot()
        raw_wall = wall = 0.0
        while stats.keep_timing(raw_wall, len(ops), seconds):
            # Probe between batches, when no pool worker runs.
            self.speed.probe(self.PROBES, after_idle=True)
            factor = self.speed.factor(2 * self.PROBES)
            suite = self.suites[batches % len(self.suites)]
            first = batches * len(suite)
            start = clock()
            try:
                if tracer is None:
                    reports = self._batch(suite, workers)
                else:
                    reports = self._traced_batch(tracer, suite, first)
            except Exception as error:  # noqa: BLE001 — recorded, not fatal
                cause = f"raised {type(error).__name__}: {error}"[:300]
                reports = None
                ops.extend(Op(first + i, _label(meta), cause=cause)
                           for i, (meta, _) in enumerate(suite))
            segment = clock() - start
            raw_wall += segment
            wall += segment * factor
            batches += 1
            if reports is None:
                continue
            for i, (meta, graph) in enumerate(suite):
                chunk = reports[i * per_instance:(i + 1) * per_instance]
                op = self._check_instance(first + i, meta, graph, chunk)
                _normalize(op, factor)
                ops.append(op)
        after = opt_cache.snapshot()
        phase = Phase(ops, wall, extra={
            "raw_wall_s": raw_wall,
            "batches": batches,
            "workers": workers,
            "opt_hits": after["hits"] - before["hits"],
            "opt_misses": after["misses"] - before["misses"],
        })
        check_determinism(ops, self.seen, f"workers={workers}",
                          path="serial" if workers <= 1 else "pool")
        return phase

    def _traced_batch(self, tracer, suite, first: int):
        reports = []
        for i, (meta, graph) in enumerate(suite):
            g = graph.copy()
            with tracer.span("op", first + i):
                reports.extend(
                    solve_many([(meta, g)], layers.TABLE1_ALGORITHMS, self.CONFIG, workers=1)
                )
        return reports

    def _check_instance(self, op_id: int, meta: dict, graph, reports) -> Op:
        op = Op(op_id, _label(meta))
        op.latency = sum(r.wall_time for r in reports)
        op.info["alg_s"] = {r.algorithm: r.wall_time for r in reports}
        op.info["ratios"] = [r.ratio for r in reports]
        for report in reports:
            if report.valid is not True or not solution_is_valid(
                graph, report.problem, report.solution
            ):
                op.cause = f"{report.algorithm}: output is not a valid {report.problem} solution"
            elif report.ratio != measured_ratio(report.size, report.optimum_size):
                op.cause = f"{report.algorithm}: ratio does not match |ALG|/|OPT|"
            elif report.optimum_size > report.size:
                op.cause = f"{report.algorithm}: |ALG| below the exact optimum"
        dicts = [run_report_to_dict(r) for r in reports]
        op.digest = digest(dicts)
        op.info["alg_digests"] = {r.algorithm: digest(d) for r, d in zip(reports, dicts)}
        return op

    def ratio_mean(self, phase: Phase) -> float:
        """Mean |ALG|/|OPT| over every report of the first batch."""
        first = len(self.suites[0])
        return stats.mean(
            r for op in phase.ops if op.op < first for r in op.info.get("ratios", ())
        )

    def peak_rss_mib(self) -> float:
        # The parent plus each pool worker at the largest worker's peak.
        return rss_mib() + self.workers * rss_mib(resource.RUSAGE_CHILDREN)

    def layer_metrics(self, phase: Phase, tracer, untraced: Phase) -> dict:
        out = layers.tracer_metrics(tracer, len(phase.ops))
        for name in layers.TABLE1_ALGORITHMS:
            out[f"api.algorithms.{name}_s"] = stats.mean(
                op.info.get("alg_s", {}).get(name, 0.0) for op in phase.ops
            )
        out["api.runner.wire_bytes"] = stats.mean(
            len(pickle.dumps(kernel_for(graph.copy()).to_wire())) for _, graph in self.suites[0]
        )
        if untraced.ops and phase.ops:
            serial = phase.wall / len(phase.ops)
            parallel = untraced.wall / len(untraced.ops)
            out["api.runner.parallel_efficiency"] = serial / (self.workers * parallel)
        out.update(_opt_counters(tracer, phase))
        return out


def _label(meta: dict) -> str:
    return f"{meta['family']}:{meta['size']}:{meta['seed']}"


class EngineSim(Workload):
    """``simulate`` on n~1000 instances under four specs."""

    name = "engine_sim"
    FAMILIES = ("outerplanar", "cactus", "ding", "tree")
    # Sizes around 1000, ordered so every prefix of the cycle is balanced;
    # a spread of sizes turns each spec's latency into a continuum.
    SIZES = (1000, 700, 1300, 800, 1200, 900, 1100)
    CYCLES = 2
    # One round of ops per instance, a third each of one-round degree_two,
    # d2 under drops, and the long greedy runs: the median op then falls
    # inside the d2 band, not on the edge between two bands.
    ROUND = ("greedy", "degree_two", "d2_drop", "greedy_churn", "degree_two", "d2_drop")
    ACCOUNTING_OPS = 10
    RATIO_INSTANCES = 8
    exclusions = (
        ("async and adversarial schedulers",
         "d2 and greedy raise on most nodes under them (1625 and 1733 of 2000), "
         "so their time would measure exception paths"),
    )

    def specs(self) -> dict:
        seed = self.seed
        return {
            "greedy": (SimulationSpec("greedy", seed=seed), True),
            "d2_drop": (SimulationSpec(
                "d2", model="congest", budget=64, seed=seed,
                faults=parse_faults("drop=0.1"),
            ), False),
            "greedy_churn": (SimulationSpec(
                "greedy", seed=seed, max_rounds=1000,
                churn=parse_churn("rate=1.0,until=5"),
            ), False),
            "degree_two": (SimulationSpec("degree_two", seed=seed), True),
        }

    def setup(self) -> None:
        self.instances = []
        for _ in range(self.CYCLES):
            for size in self.SIZES:
                for family in self.FAMILIES:
                    inst_seed = self.rng.randrange(1 << 30)
                    graph = get_family(family).make(size, inst_seed)
                    self.instances.append((f"{family}:{size}:{inst_seed}", graph))
        self.instance_digest = graph_digest(g for _, g in self.instances)
        self._specs = self.specs()
        self.run_op(-1, None)  # warm-up

    def run_op(self, k: int, tracer, trace: str | None = None) -> Op:
        inst = (k // len(self.ROUND)) % len(self.instances)
        spec_name = self.ROUND[k % len(self.ROUND)]
        label, graph = self.instances[inst]
        spec, fault_free = self._specs[spec_name]
        if trace is not None:
            spec = spec.with_(trace=trace)
        op = Op(k, f"{label}:{spec_name}", info={"inst": inst, "spec": spec_name})
        g = graph.copy()
        op.info["report"] = _run_guarded(op, tracer, lambda: simulate(g, spec))
        op.info["fault_free"] = fault_free
        return op

    def check(self, phase: Phase) -> None:
        for op in phase.ops:
            report = op.info.pop("report", None)
            if report is None:
                continue
            _, graph = self.instances[op.info["inst"]]
            op.info.update(
                rounds=report.rounds, messages=report.total_messages,
                payload=report.total_payload, dropped=report.dropped_messages,
                churn_events=report.churn_events, chosen=len(report.chosen),
            )
            if report.timed_out:
                op.outcome = f"timed_out after {report.rounds} rounds"
            elif report.failed:
                op.outcome = f"{len(report.failed)} nodes raised"
            elif op.info["fault_free"] and not is_dominating_set(graph, report.chosen):
                op.cause = "fault-free simulate output does not dominate"
            op.digest = digest(sim_report_to_dict(report))

    def ratio_mean(self, phase: Phase) -> float:
        """Mean |chosen|/|OPT| of the fault-free ops on the first instances."""
        sizes = {
            op.key: (op.info["inst"], op.info["chosen"])
            for op in phase.ops
            if op.info.get("fault_free") and "chosen" in op.info
            and op.info["inst"] < self.RATIO_INSTANCES
        }
        return stats.mean(
            measured_ratio(size, opt_cache.optimum_size(self.instances[inst][1]))
            for inst, size in sizes.values()
        )

    def layer_metrics(self, phase: Phase, tracer, untraced: Phase) -> dict:
        ops = phase.ops
        out = layers.tracer_metrics(tracer, len(ops))
        for metric, field_name in (
            ("local_model.engine.rounds", "rounds"),
            ("local_model.engine.messages", "messages"),
            ("local_model.engine.payload_units", "payload"),
            ("local_model.engine.dropped", "dropped"),
            ("local_model.adversary.churn_events", "churn_events"),
        ):
            out[metric] = stats.mean(op.info.get(field_name, 0) for op in ops)
        run_time = tracer.total("local_model.engine.run").total
        messages = sum(op.info.get("messages", 0) for op in ops)
        out["local_model.engine.messages_per_s"] = messages / run_time if run_time else 0.0
        out["local_model.engine.accounting_s"] = self._accounting()
        out.update(_opt_counters(tracer, phase))
        return out

    def _accounting(self) -> float:
        """Mean time of the same op with ``trace="stats"`` minus ``trace="off"``."""
        diffs = []
        for k in range(self.ACCOUNTING_OPS):
            on = self.run_op(k, None, trace="stats")
            off = self.run_op(k, None, trace="off")
            if on.latency is not None and off.latency is not None:
                diffs.append(on.latency - off.latency)
        return stats.mean(diffs)


WORKLOAD_CLASSES = {cls.name: cls for cls in (Alg1Sparse, Table1Ratio, EngineSim)}
