"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload alg1_sparse --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric of the workload; with ``--trace 1`` every per-layer
metric.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``setup_s`` is the median of three set-ups, each timed from the launch of
a fresh measuring process to its ``READY`` line and normalized to the
host speed probed just before it (``perfbench/calibrate.py``); the third
of them then runs the timed phase.  The program runs from ``src/`` of the checkout,
so a directory without it is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.calibrate import WINDOW, Speed  # noqa: E402
SETUP_PROBES = 2
"""Set-up-only processes before the measuring one (three set-ups in all)."""
DEADLINE_S = 170.0
WORKLOADS = ("alg1_sparse", "table1_ratio", "engine_sim", "serve_mixed")


class Child:
    """A measuring process whose standard output is read line by line."""

    def __init__(self, argv: list, env: dict) -> None:
        self.started = time.perf_counter()
        # A session of its own, so a kill also reaches the service process
        # that the serve workload starts.
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_ready(self, deadline: float) -> float:
        """Seconds from launch to the READY line."""
        while True:
            line = self.lines.get(timeout=max(deadline - time.perf_counter(), 0.001))
            if line is None:
                raise RuntimeError(f"measuring process exited during set-up "
                                   f"(code {self.proc.wait()})")
            if line == "READY":
                return time.perf_counter() - self.started

    def finish(self, deadline: float) -> list:
        """Remaining output lines, once the process has exited with code 0."""
        out = []
        while True:
            line = self.lines.get(timeout=max(deadline - time.perf_counter(), 0.001))
            if line is None:
                break
            out.append(line)
        code = self.proc.wait(timeout=max(deadline - time.perf_counter(), 0.001))
        self.reader.join()
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"measuring process exited with code {code}")
        return out

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run the "
              "benchmark from the root of a full checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    out_dir = HERE / "out"
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
        PYTHONHASHSEED="0",
        TMPDIR=str(out_dir / "tmp"),
    )
    base = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    setups, raw_setups = [], []
    speed = Speed()
    child = None

    def launch(phase: str) -> Child:
        speed.probe(WINDOW, after_idle=True)
        factor = speed.factor()
        started = Child(base + ["--phase", phase], env)
        raw_setups.append(started.wait_ready(deadline))
        setups.append(raw_setups[-1] * factor)
        return started

    try:
        probes = 0 if args.trace else SETUP_PROBES
        for _ in range(probes):
            child = launch("setup")
            child.finish(deadline)
        child = launch("run")
        lines = child.finish(deadline)
        child = None
        result = json.loads(lines[-1])
    except (RuntimeError, queue.Empty, subprocess.TimeoutExpired, IndexError, ValueError) as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    finally:
        if child is not None:
            child.kill()

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record_path = ROOT / result["record"]
    record = json.loads(record_path.read_text())
    record["metrics"] = metrics
    record["setup_samples_s"] = setups
    record["setup_samples_raw_s"] = raw_setups
    record_path.write_text(json.dumps(record, indent=1))

    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  attempted={result['attempted']}  failed={result['failed']}  "
          f"outcome_failures={record['outcome_failures']}  "
          f"failed_fraction={record['failed_fraction']:.4f}  "
          f"latency_samples={record['samples']['latency_samples']}")
    print(f"  record: {result['record']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
