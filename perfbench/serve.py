"""The ``serve_mixed`` workload: ``repro serve`` driven over loopback HTTP.

Set-up starts ``python -m repro serve --workers 2`` with a result spill
directory and a job journal in a temporary directory of the checkout,
waits for a healthy ``/healthz`` and runs one warm-up job that makes the
warm instance set resident.  Two client threads then drive the service
in a closed loop, one persistent connection each: submit a job, poll its
status, fetch its result.

The job mix repeats a 20-slot pattern: 11 small solve jobs (6 on the
warm set, 5 on fresh seeds), 5 simulate jobs and 4 large solve jobs
above the 8192-node packed switch.  Per-layer numbers come from the
job status records and from ``/stats`` read before and after the timed
phase, never during it.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from perfbench import stats
from perfbench.workloads import (
    Op,
    Phase,
    Workload,
    check_determinism,
    digest,
    is_dominating_set,
    rss_mib,
    solution_is_valid,
)
from repro.api import RunConfig, SimulationSpec, simulate, solve_many
from repro.api.config import measured_ratio
from repro.graphs.families import get_family
from repro.io import run_config_to_dict, run_report_to_dict, sim_report_to_dict, sim_spec_to_dict

clock = time.perf_counter

# 11 small solve jobs (6 warm, 5 fresh), 5 simulate jobs and 4 large jobs
# in 20 slots.  With a fifth of the jobs large, op_p90_s falls near the
# median large job rather than in the sparse tail of their latencies.
PATTERN = (
    "warm", "fresh", "sim", "large", "warm", "fresh", "sim", "warm", "large", "fresh",
    "sim", "warm", "fresh", "large", "sim", "warm", "fresh", "warm", "large", "sim",
)
SMALL_FAMILIES = ("tree", "outerplanar", "cactus", "ladder", "ding", "fan", "spider", "cycle")
SMALL_SIZES = (24, 48, 72, 96)
SMALL_ALGORITHMS = ("d2", "greedy_central", "matching_vc")
SMALL_CONFIG = RunConfig(validate="ratio")
SIM_FAMILIES = ("outerplanar", "cactus", "tree", "ding")
SIM_SIZE = 200
SIM_SPECS = (SimulationSpec("d2"), SimulationSpec("greedy"))
# (family, n, algorithm): each instance meets each algorithm once per
# six large jobs, and the small size comes first so cold generation of
# the big instances is spread out.
LARGE_JOBS = (
    ("outerplanar", 20_000, "d2"), ("tree", 50_000, "greedy_central"),
    ("ladder", 20_000, "d2_vc"), ("outerplanar", 50_000, "greedy_central"),
    ("tree", 20_000, "d2_vc"), ("ladder", 50_000, "d2"),
    ("outerplanar", 20_000, "greedy_central"), ("tree", 50_000, "d2_vc"),
    ("ladder", 20_000, "d2"), ("outerplanar", 50_000, "d2_vc"),
    ("tree", 20_000, "d2"), ("ladder", 50_000, "greedy_central"),
    ("outerplanar", 20_000, "d2_vc"), ("tree", 50_000, "d2"),
    ("ladder", 20_000, "greedy_central"), ("outerplanar", 50_000, "d2"),
    ("tree", 20_000, "greedy_central"), ("ladder", 50_000, "d2_vc"),
)
LARGE_CONFIG = RunConfig(validate="valid")
WARM_SET = 8
POLL_FIRST, POLL_MAX = 0.002, 0.05
PROBE_EVERY_S = 0.1
BOOT_TIMEOUT = 60.0
JOB_TIMEOUT = 60.0
RATIO_JOBS = 60
DIRECT_CHECKS = 24
"""Distinct small-solve and simulate instances re-run directly per phase."""


class ServeMixed(Workload):
    name = "serve_mixed"
    exclusions = (
        ("algorithm1 in serve",
         "it raises above the 8192-node packed switch; including it would make "
         "ROADMAP item 1's fix read as a serve slowdown"),
        ("direct re-run of large jobs",
         "each would cost the client 0.1-1.5 s; their outputs are checked through "
         "the report's validity flag"),
    )

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed)
        self.root = root
        self.server = None
        self.server_peak_mib = 0.0
        self.phases_run = 0

    # -- service lifecycle ------------------------------------------------

    def setup(self) -> None:
        # Families, sizes and job kinds follow fixed round-robin orders, so
        # every seed gets the same mix; the seed draws the instances.
        self.warm = [
            (family, SMALL_SIZES[i % len(SMALL_SIZES)], self.rng.randrange(1 << 20))
            for i, family in enumerate(SMALL_FAMILIES)
        ]
        self.large_seed = self.rng.randrange(1 << 20)
        self.plan = self._plan(len(PATTERN) * 50)
        self.instance_digest = digest([job["payload"] for job in self.plan])
        self._boot()

    def _plan(self, count: int) -> list:
        rng = self.rng
        jobs = []
        seen = dict.fromkeys(("warm", "fresh", "sim", "large"), 0)
        for k in range(count):
            kind = PATTERN[k % len(PATTERN)]
            j = seen[kind]
            seen[kind] += 1
            if kind == "warm":
                family, size, seed = self.warm[j % len(self.warm)]
            elif kind == "fresh":
                family = SMALL_FAMILIES[j % len(SMALL_FAMILIES)]
                size = SMALL_SIZES[(j // len(SMALL_FAMILIES) + j) % len(SMALL_SIZES)]
                seed = rng.randrange(1 << 20, 1 << 30)
            elif kind == "sim":
                family, size, seed = SIM_FAMILIES[j % len(SIM_FAMILIES)], SIM_SIZE, rng.randrange(8)
            else:
                family, size, algorithm = LARGE_JOBS[j % len(LARGE_JOBS)]
                seed = self.large_seed
            if kind == "sim":
                payload = {
                    "kind": "simulate",
                    "instances": [{"family": family, "size": size, "seed": seed}],
                    "specs": [sim_spec_to_dict(spec) for spec in SIM_SPECS],
                }
                algorithms = ["sim"]
            else:
                algorithms = list(SMALL_ALGORITHMS) if kind != "large" else [algorithm]
                config = SMALL_CONFIG if kind != "large" else LARGE_CONFIG
                payload = {
                    "kind": "solve",
                    "instances": [{"family": family, "size": size, "seed": seed}],
                    "algorithms": algorithms,
                    "config": run_config_to_dict(config),
                }
            kind_class = "small" if kind in ("warm", "fresh") else kind
            key = f"{kind_class}:{family}:{size}:{seed}:{','.join(algorithms)}"
            jobs.append({"class": kind_class, "key": key,
                         "instance": (family, size, seed), "payload": payload})
        return jobs

    def _boot(self) -> None:
        out = self.root / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=out))
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2", "--port", "0",
             "--result-dir", str(self.tmp / "results"),
             "--journal-dir", str(self.tmp / "journal")],
            cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        line = _readline(self.server.stdout, BOOT_TIMEOUT)
        if not line.startswith("repro serve listening on http://"):
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split()[4].rsplit(":", 1)[1])
        deadline = clock() + BOOT_TIMEOUT
        conn = self._connect()
        while True:
            try:
                if _request(conn, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                conn.close()
                conn = self._connect()
            if clock() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.01)
        warm = {
            "kind": "solve",
            "instances": [{"family": f, "size": n, "seed": s} for f, n, s in self.warm],
            "algorithms": list(SMALL_ALGORITHMS),
            "config": run_config_to_dict(SMALL_CONFIG),
        }
        record = self._job(conn, warm)
        conn.close()
        if record["cause"]:
            raise RuntimeError(f"warm-up job failed: {record['cause']}")

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT)

    def close(self) -> None:
        if self.server is None:
            return
        self.server_peak_mib = max(self.server_peak_mib, _vm_hwm_mib(self.server.pid))
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None
        shutil.rmtree(self.tmp, ignore_errors=True)

    def peak_rss_mib(self) -> float:
        if self.server is not None:
            self.server_peak_mib = max(self.server_peak_mib, _vm_hwm_mib(self.server.pid))
        return rss_mib() + self.server_peak_mib

    # -- the timed phase ---------------------------------------------------

    def phase(self, seconds: float, tracer=None) -> Phase:
        if self.phases_run:
            # Each phase gets a fresh service, so the traced phase does not
            # start with the untraced phase's caches warm.
            self.close()
            self._boot()
        self.phases_run += 1
        before = self._stats()
        ops: list = []
        lock = threading.Lock()
        issued = [0]
        done = threading.Event()

        def prober() -> None:
            # Host speed, sampled through the phase.  The probe shares the
            # cores with the service, the same way in every run, so the
            # median still follows the host.
            while not done.wait(PROBE_EVERY_S):
                self.speed.probe()

        first_probe = len(self.speed.samples)
        probe_thread = threading.Thread(target=prober)
        probe_thread.start()
        start = clock()

        def client() -> None:
            conn = self._connect()
            try:
                while True:
                    with lock:
                        k = issued[0]
                        if k == len(self.plan) or not stats.keep_timing(
                            clock() - start, k, seconds
                        ):
                            return
                        issued[0] += 1
                    job = self.plan[k]
                    record = self._job(conn, job["payload"])
                    op = Op(k, job["key"], latency=record["latency"], cause=record["cause"])
                    op.info = {**record, "class": job["class"], "job": job}
                    with lock:
                        ops.append(op)
                    if record["reset"]:
                        conn.close()
                        conn = self._connect()
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        raw_wall = clock() - start
        done.set()
        probe_thread.join()
        factor = self.speed.factor(len(self.speed.samples) - first_probe)
        after = self._stats()
        ops.sort(key=lambda op: op.op)
        for op in ops:
            if op.latency is not None:
                op.latency *= factor
        phase = Phase(ops, raw_wall * factor,
                      extra={"before": before, "after": after, "raw_wall_s": raw_wall})
        self.check(phase)
        check_determinism(ops, self.seen, "traced" if tracer else "untraced")
        return phase

    def _stats(self) -> dict:
        conn = self._connect()
        try:
            code, body = _request(conn, "GET", "/stats")
        finally:
            conn.close()
        return json.loads(body) if code == 200 else {}

    def _job(self, conn, payload: dict) -> dict:
        """Submit, poll, fetch; returns the client-side record of one job."""
        record = {"latency": None, "cause": None, "reset": False, "reports": None,
                  "submit_s": None, "result_s": None, "result_bytes": 0, "polls": 0,
                  "wall_time": None, "rejected": 0}
        start = clock()
        try:
            code, body = _request(conn, "POST", "/jobs", payload)
            record["submit_s"] = clock() - start
            if code == 429:
                record["rejected"] = 1
                record["cause"] = "HTTP 429: queue full"
                return record
            if code != 202:
                record["cause"] = f"HTTP {code} on submit: {body[:200]!r}"
                return record
            job_id = json.loads(body)["id"]
            delay = POLL_FIRST
            while True:
                code, body = _request(conn, "GET", f"/jobs/{job_id}")
                record["polls"] += 1
                if code != 200:
                    record["cause"] = f"HTTP {code} on status"
                    return record
                status = json.loads(body)
                if status["state"] not in ("queued", "running"):
                    break
                if clock() - start > JOB_TIMEOUT:
                    record["cause"] = f"job {job_id} still {status['state']} after {JOB_TIMEOUT} s"
                    return record
                time.sleep(delay)
                delay = min(delay * 1.5, POLL_MAX)
            record["wall_time"] = status["wall_time"]
            if status["state"] != "completed":
                record["cause"] = f"job {status['state']}: {status['error']}"
                return record
            fetch = clock()
            code, body = _request(conn, "GET", f"/jobs/{job_id}/result")
            record["result_s"] = clock() - fetch
            record["latency"] = clock() - start
            record["result_bytes"] = len(body)
            if code != 200:
                record["cause"] = f"HTTP {code} on result"
                return record
            record["reports"] = json.loads(body)
        except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
            record["cause"] = f"{type(error).__name__}: {error}"[:300]
            record["reset"] = True
        return record

    # -- checks ------------------------------------------------------------

    def check(self, phase: Phase) -> None:
        """Validate every result locally; re-run a sample directly to compare."""
        graphs: dict = {}
        direct: dict = {}
        for op in phase.ops:
            reports = op.info.get("reports")
            if reports is None:
                continue
            job = op.info["job"]
            op.digest = digest(reports)
            if job["class"] == "large":
                # Regenerating 5*10^4-node instances client-side would cost
                # seconds per run; the service ran the same checker.
                if not all(report["valid"] is True for report in reports):
                    op.cause = "large solve output is not valid"
                continue
            if op.key not in graphs:
                graphs[op.key] = _instance(job)
            op.cause = _check_reports(job["class"], graphs[op.key][1], reports)
            if len(direct) < DIRECT_CHECKS or op.key in direct:
                direct.setdefault(op.key, job["class"])
        for key, kind in direct.items():
            meta, graph = graphs[key]
            if kind == "sim":
                reports = [sim_report_to_dict(simulate(graph, spec, meta=meta))
                           for spec in SIM_SPECS]
            else:
                reports = [run_report_to_dict(r)
                           for r in solve_many([(meta, graph)], SMALL_ALGORITHMS, SMALL_CONFIG)]
            direct[key] = digest(reports)
        for op in phase.ops:
            if op.cause is None and op.digest is not None and direct.get(op.key, op.digest) != op.digest:
                op.cause = "serve result differs from the direct batch call"

    def ratio_mean(self, phase: Phase) -> float:
        """Mean reported |ALG|/|OPT| over the small jobs of the first
        ``RATIO_JOBS`` plan slots, each distinct job once."""
        reports = {
            op.key: op.info["reports"]
            for op in phase.ops
            if op.op < RATIO_JOBS and op.info["class"] == "small" and op.info["reports"]
        }
        return stats.mean(r["ratio"] for rs in reports.values() for r in rs)

    def layer_metrics(self, phase: Phase, tracer, untraced: Phase) -> dict:
        done = [op for op in phase.ops if op.latency is not None and op.info["wall_time"] is not None]
        # Raw client latency, comparable with the service's raw wall_time.
        waits = [
            op.info["latency"] - op.info["wall_time"] - op.info["submit_s"] - op.info["result_s"]
            for op in done
        ]
        out = {}
        if waits:
            out["serve.service.queue_wait_s_p50"] = stats.percentile(waits, 50)
            out["serve.service.queue_wait_s_p90"] = stats.percentile(waits, 90)
            out["serve.http.submit_s_p50"] = stats.percentile(
                [op.info["submit_s"] for op in done], 50)
            out["serve.http.result_s_p50"] = stats.percentile(
                [op.info["result_s"] for op in done], 50)
        for kind in ("small", "sim", "large"):
            out[f"serve.service.exec_s_{kind}"] = stats.mean(
                op.info["wall_time"] for op in done if op.info["class"] == kind
            )
        ops = max(len(phase.ops), 1)
        out["serve.http.result_bytes_mean"] = stats.mean(op.info["result_bytes"] for op in done)
        out["serve.http.polls_per_job"] = stats.mean(op.info["polls"] for op in phase.ops)
        out["serve.http.rejected"] = sum(op.info["rejected"] for op in phase.ops) / ops
        before, after = phase.extra["before"], phase.extra["after"]
        hits = after["opt_cache"]["hits"] - before["opt_cache"]["hits"]
        misses = after["opt_cache"]["misses"] - before["opt_cache"]["misses"]
        out["solvers.opt_cache.hits"] = hits / ops
        out["solvers.opt_cache.misses"] = misses / ops
        out["solvers.opt_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        inst_hits = after["instances"]["hits"] - before["instances"]["hits"]
        inst_misses = after["instances"]["misses"] - before["instances"]["misses"]
        total = inst_hits + inst_misses
        out["serve.instances.hit_ratio"] = inst_hits / total if total else 0.0
        for name in ("d2", "greedy_central", "matching_vc", "d2_vc"):
            times = [
                report["wall_time"]
                for op in done if op.info["class"] != "sim"
                for report in op.info["reports"] if report["algorithm"] == name
            ]
            out[f"api.algorithms.{name}_s"] = sum(times) / ops
        return out


def _check_reports(kind: str, graph, reports) -> str | None:
    """Validate small-solve and fault-free simulate results with the program's checkers."""
    for report in reports:
        if kind == "sim":
            chosen = {v for v, output in report["outputs"] if output is True}
            if not is_dominating_set(graph, chosen):
                return f"{report['algorithm']}: fault-free simulate output does not dominate"
            continue
        if report["valid"] is not True or not solution_is_valid(
            graph, report["problem"], report["result"]["solution"]
        ):
            return f"{report['algorithm']}: output is not a valid {report['problem']} solution"
        if report["ratio"] != measured_ratio(
            len(report["result"]["solution"]), report["optimum_size"]
        ):
            return f"{report['algorithm']}: ratio does not match |ALG|/|OPT|"
    return None


def _instance(job: dict):
    family, size, seed = job["instance"]
    return {"family": family, "size": size, "seed": seed}, get_family(family).make(size, seed)


def _request(conn, method: str, path: str, payload=None) -> tuple[int, bytes]:
    body = None if payload is None else json.dumps(payload).encode()
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def _readline(stream, timeout: float) -> str:
    """One line from a child's pipe, or '' if none arrives in time."""
    lines: list = []
    reader = threading.Thread(target=lambda: lines.append(stream.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    return lines[0].strip() if lines else ""


def _vm_hwm_mib(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0
