"""One measuring process: set up a workload, run its timed phases, report.

``run.py`` starts this process (``python -m perfbench.worker``) and times it from launch to the ``READY``
line (imports, instance generation, one warm-up op and, for serve, the
service boot).  With ``--phase setup`` the process stops there.  With
``--phase run`` it times the workload untraced for ``--seconds``; with
``--trace 1`` it then installs the tracer and times the same op
sequence again.  The last line of its output is the result JSON, and
the full record (provenance envelope, failure ledger, digests, spans)
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from perfbench import layers, stats
from perfbench.serve import ServeMixed
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOAD_CLASSES, count_failures

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int):
    if name == ServeMixed.name:
        return ServeMixed(seed, ROOT)
    return WORKLOAD_CLASSES[name](seed)


def envelope(workload, seed: int) -> dict:
    """Provenance recorded with every result file."""
    import networkx
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        sha = done.stdout.strip() or None
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or None,
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
        "instance_digest": workload.instance_digest,
    }


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def ledger(workload, phase, label: str) -> list:
    return [
        {
            "workload": workload.name,
            "phase": label,
            "op": op.op,
            "instance": op.key,
            "kind": "hard" if op.cause else "outcome",
            "cause": op.cause or op.outcome,
        }
        for op in phase.ops
        if op.cause or op.outcome
    ]


def end_to_end(workload, phase) -> tuple[dict, dict]:
    latencies = [op.latency for op in phase.ops if op.latency is not None]
    if not latencies:
        raise RuntimeError("no op completed in the timed phase")
    values = {
        "throughput_ops_s": phase.completed / phase.wall,
        "op_p50_s": stats.percentile(latencies, 50),
        "op_p90_s": stats.percentile(latencies, 90),
        "peak_rss_mib": workload.peak_rss_mib(),
        "ratio_mean": workload.ratio_mean(phase),
    }
    samples = {
        "latency_samples": len(latencies),
        "p90_samples_beyond": stats.samples_beyond(len(latencies), 90),
        "p90_supported": stats.supported(len(latencies), 90),
    }
    return values, samples


def overhead(untraced, traced) -> float:
    """Traced over untraced op time, on the op ids both phases ran."""
    base = {op.op: op.latency for op in untraced.ops if op.latency is not None}
    pairs = [(base[op.op], op.latency) for op in traced.ops
             if op.latency is not None and op.op in base]
    untraced_s = sum(u for u, _ in pairs)
    return sum(t for _, t in pairs) / untraced_s if untraced_s else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = make_workload(args.workload, args.seed)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.phase == "setup":
            return 0
        phases = [("untraced", workload.phase(args.seconds))]
        tracer = None
        if args.trace:
            tracer = Tracer(layers.HOOKS)
            tracer.install()
            try:
                phases.append(("traced", workload.phase(args.seconds, tracer)))
            finally:
                tracer.restore()
    finally:
        workload.close()

    post_start = time.perf_counter()
    untraced = phases[0][1]
    ops = [op for _, phase in phases for op in phase.ops]
    hard, outcome = count_failures(ops)
    values, samples = end_to_end(workload, untraced)
    if args.trace:
        traced = phases[1][1]
        metrics = layers.empty_layer_metrics()
        metrics.update(workload.layer_metrics(traced, tracer, untraced))
        metrics["trace.throughput_ops_s"] = traced.completed / traced.wall
        metrics["trace.overhead"] = overhead(untraced, traced)
        metrics["failed_fraction"] = (hard + outcome) / len(ops)
    else:
        metrics = values
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "bench": "perfbench",
        "schema": 1,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": envelope(workload, args.seed),
        "metrics": {k: {"value": v, "unit": layers.UNITS[k]} for k, v in metrics.items()},
        "end_to_end_untraced": values,
        "attempted": len(ops),
        "failed": hard,
        "outcome_failures": outcome,
        "failed_fraction": (hard + outcome) / len(ops),
        "samples": samples,
        "phases": {label: {"ops": len(p.ops), "wall_s": p.wall, **{
            k: v for k, v in p.extra.items() if isinstance(v, (int, float))
        }} for label, p in phases},
        "ledger": [row for label, phase in phases for row in ledger(workload, phase, label)],
        "exclusions": [{"what": what, "why": why} for what, why in workload.exclusions],
        "digests": {op.key: op.digest for op in untraced.ops if op.digest},
        "op_latencies": [
            [op.op, op.key, op.latency, op.info.get("raw_latency", op.info.get("latency"))]
            for op in untraced.ops
        ],
        "speed_probes_s": workload.speed.samples,
        "post_phase_s": time.perf_counter() - post_start,
    }
    result_path = OUT / f"{stem}.json"
    result_path.write_text(json.dumps(record, indent=1))
    if tracer is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as spans:
            for span in tracer.spans:
                spans.write(json.dumps(span) + "\n")
    print(json.dumps({
        "correct": hard == 0,
        "attempted": len(ops),
        "failed": hard,
        "metrics": record["metrics"],
        "record": str(result_path.relative_to(ROOT)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
