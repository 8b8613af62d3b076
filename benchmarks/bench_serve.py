"""Serve benchmark: request throughput + cross-request cache residency.

Boots a real :class:`repro.serve.ReproHTTPServer` on a loopback socket
and drives it with the stdlib HTTP client, then writes
``benchmarks/BENCH_serve.json``:

* ``http`` — sequential ``GET /healthz`` and ``GET /stats``
  requests/sec, one connection per request (handler threads never touch
  the solver pool, so these stay fast under load), plus
  ``healthz_keepalive``: sequential ``GET /healthz`` on one persistent
  connection;
* ``jobs`` — end-to-end jobs/sec for a stream of single-instance solve
  jobs (submit + poll + fetch result over HTTP);
* ``residency`` — the reason the service exists: an identical job batch
  submitted twice against one resident process.  The cold pass must
  miss the OPT cache on every instance (``cold_hit_rate == 0``); the
  warm pass must be served entirely from the resident kernels and
  cached optima (``warm_hit_rate > 0``, and no new misses);
* ``byte_identity`` — the HTTP ``/result`` body for a solve job equals
  the direct :func:`repro.api.solve_many` report JSON modulo the
  sanctioned ``wall_time`` fields.

Run as a script for the CI smoke (``python benchmarks/bench_serve.py
--quick``) or in full (``python benchmarks/bench_serve.py``) to
regenerate ``BENCH_serve.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

from repro.api import solve_many
from repro.api.config import run_config_from_options
from repro.graphs.families import get_family
from repro.io import run_report_to_dict
from repro.serve import ReproHTTPServer, ReproService

RESULT_PATH = Path(__file__).parent / "BENCH_serve.json"


class Client:
    """A minimal JSON client over one loopback connection per request."""

    def __init__(self, port: int):
        self.port = port

    def request(self, method: str, path: str, payload: object = None):
        conn = HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = None if payload is None else json.dumps(payload).encode()
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def submit(self, payload: dict) -> str:
        status, body = self.request("POST", "/jobs", payload)
        if status != 202:
            raise RuntimeError(f"submit failed: {status} {body}")
        return body["id"]

    def poll(self, job_id: str, timeout: float = 120.0) -> dict:
        start = time.monotonic()
        while True:
            _, record = self.request("GET", f"/jobs/{job_id}")
            if record["state"] not in ("queued", "running"):
                return record
            elapsed = time.monotonic() - start
            if elapsed > timeout:
                raise RuntimeError(f"job {job_id} stuck after {elapsed:.1f}s")
            time.sleep(0.01)

    def result(self, job_id: str) -> list:
        status, body = self.request("GET", f"/jobs/{job_id}/result")
        if status != 200:
            raise RuntimeError(f"result fetch failed: {status} {body}")
        return body

    def stats(self) -> dict:
        return self.request("GET", "/stats")[1]


def _boot(workers: int = 2):
    service = ReproService(workers=workers, queue_depth=64).start()
    server = ReproHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return service, server, thread


def _shutdown(service, server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    service.stop()


def _solve_payload(instances, algorithms):
    return {
        "kind": "solve",
        "instances": [
            {"family": f, "size": n, "seed": s} for f, n, s in instances
        ],
        "algorithms": algorithms,
        "validate": "ratio",
    }


# -- sections ---------------------------------------------------------------


def measure_http(client: Client, requests: int) -> dict:
    rows = {}
    for path in ("/healthz", "/stats"):
        start = time.perf_counter()
        for _ in range(requests):
            status, _ = client.request("GET", path)
            if status != 200:
                raise RuntimeError(f"{path} returned {status}")
        elapsed = time.perf_counter() - start
        rows[path.strip("/")] = _rate_row(requests, elapsed)
    # Sequential requests on one persistent connection: the row that sees
    # a per-response stall on kept-alive sockets (the rows above open a
    # fresh connection per request, so they cannot).
    conn = HTTPConnection("127.0.0.1", client.port, timeout=60)
    try:
        start = time.perf_counter()
        for _ in range(requests):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            json.loads(response.read())
            if response.status != 200:
                raise RuntimeError(f"keep-alive /healthz returned {response.status}")
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    rows["healthz_keepalive"] = _rate_row(requests, elapsed)
    return rows


def _rate_row(requests: int, elapsed: float) -> dict:
    return {
        "requests": requests,
        "total_s": round(elapsed, 6),
        "rps": round(requests / elapsed, 1),
    }


def measure_jobs(client: Client, count: int, size: int) -> dict:
    start = time.perf_counter()
    job_ids = [
        client.submit(_solve_payload([("fan", size, seed)], ["d2"]))
        for seed in range(count)
    ]
    for job_id in job_ids:
        record = client.poll(job_id)
        if record["state"] != "completed":
            raise RuntimeError(f"job {job_id} ended {record['state']}")
        client.result(job_id)
    elapsed = time.perf_counter() - start
    return {
        "jobs": count,
        "instance_n": size,
        "total_s": round(elapsed, 6),
        "jobs_per_s": round(count / elapsed, 2),
    }


def _hit_rate(stats: dict) -> float:
    total = stats["hits"] + stats["misses"]
    return stats["hits"] / total if total else 0.0


def measure_residency(client: Client, sizes: list[int]) -> dict:
    """One job batch, submitted twice: cold then resident-warm."""
    payload = _solve_payload([("fan", n, 0) for n in sizes], ["d2"])
    baseline = client.stats()["opt_cache"]

    cold_start = time.perf_counter()
    cold_record = client.poll(client.submit(payload))
    cold_s = time.perf_counter() - cold_start
    after_cold = client.stats()["opt_cache"]
    cold = {
        "hits": after_cold["hits"] - baseline["hits"],
        "misses": after_cold["misses"] - baseline["misses"],
    }

    warm_start = time.perf_counter()
    warm_record = client.poll(client.submit(payload))
    warm_s = time.perf_counter() - warm_start
    after_warm = client.stats()["opt_cache"]
    warm = {
        "hits": after_warm["hits"] - after_cold["hits"],
        "misses": after_warm["misses"] - after_cold["misses"],
    }
    return {
        "instances": len(sizes),
        "states": [cold_record["state"], warm_record["state"]],
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2) if warm_s else float("inf"),
        "cold_hits": cold["hits"],
        "cold_misses": cold["misses"],
        "warm_hits": warm["hits"],
        "warm_misses": warm["misses"],
        "cold_hit_rate": round(_hit_rate(cold), 4),
        "warm_hit_rate": round(_hit_rate(warm), 4),
    }


def measure_byte_identity(client: Client) -> dict:
    instances = [("fan", 16, 0), ("ladder", 10, 1)]
    algorithms = ["d2", "greedy"]
    served = client.result(
        client.poll(client.submit(_solve_payload(instances, algorithms)))["id"]
    )
    pairs = [
        ({"family": f, "size": n, "seed": s}, get_family(f).make(n, s))
        for f, n, s in instances
    ]
    direct = [
        run_report_to_dict(r)
        for r in solve_many(
            pairs, algorithms, run_config_from_options(validate="ratio")
        )
    ]
    for report in served + direct:
        report["wall_time"] = 0.0
    identical = json.dumps(served, indent=1) == json.dumps(direct, indent=1)
    return {"reports": len(served), "identical": identical}


def run(quick: bool) -> dict:
    service, server, thread = _boot(workers=2)
    try:
        client = Client(server.server_address[1])
        result = {
            "benchmark": "serve",
            "quick": quick,
            "http": measure_http(client, 100 if quick else 500),
            "jobs": measure_jobs(
                client, count=4 if quick else 16, size=12 if quick else 20
            ),
            "residency": measure_residency(
                client, sizes=[16, 20] if quick else [24, 32, 40, 48]
            ),
            "byte_identity": measure_byte_identity(client),
        }
    finally:
        _shutdown(service, server, thread)
    return result


def check(result: dict, quick: bool) -> list[str]:
    """Regression assertions; quick mode uses looser CI-safe floors."""
    failures = []
    rps_floor = 20.0 if quick else 50.0
    # A kept-alive connection skips the TCP handshake, so it must beat the
    # per-connection rows by far; a ~40 ms delayed-ACK stall caps it near 23.
    keepalive_floor = 100.0 if quick else 200.0
    for name, row in result["http"].items():
        floor = keepalive_floor if name == "healthz_keepalive" else rps_floor
        if row["rps"] < floor:
            failures.append(f"http {name}: {row['rps']} req/s < {floor}")
    if result["jobs"]["jobs_per_s"] <= 0:
        failures.append("jobs: throughput not positive")
    res = result["residency"]
    if res["states"] != ["completed", "completed"]:
        failures.append(f"residency: jobs ended {res['states']}")
    if res["cold_hit_rate"] != 0.0:
        failures.append(
            f"residency: cold pass hit the OPT cache ({res['cold_hit_rate']}) — "
            "stats were not reset or the batch self-overlapped"
        )
    if not res["warm_hit_rate"] > 0.0:
        failures.append("residency: warm pass missed the resident OPT cache")
    if res["warm_misses"] != 0:
        failures.append(f"residency: warm pass re-solved OPT {res['warm_misses']}x")
    if not result["byte_identity"]["identical"]:
        failures.append("byte_identity: served reports differ from solve_many")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer requests + loose floors (CI regression smoke)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the result JSON here (default: only full runs write "
        "BENCH_serve.json)",
    )
    args = parser.parse_args(argv)
    result = run(quick=args.quick)
    out = args.out if args.out is not None else (None if args.quick else RESULT_PATH)
    if out is not None:
        out.write_text(json.dumps(result, indent=1))
    for name, row in result["http"].items():
        print(f"{'http /' + name:>24} {row['rps']:>8.1f} req/s "
              f"({row['requests']} requests in {row['total_s']:.3f}s)")
    jobs = result["jobs"]
    print(
        f"{'jobs end-to-end':>24} {jobs['jobs_per_s']:>8.2f} jobs/s "
        f"({jobs['jobs']} jobs, n={jobs['instance_n']})"
    )
    res = result["residency"]
    print(
        f"{'residency':>24} cold {res['cold_s']:.3f}s "
        f"(hit rate {res['cold_hit_rate']:.2f}) vs warm {res['warm_s']:.3f}s "
        f"(hit rate {res['warm_hit_rate']:.2f}): {res['speedup']:.1f}x"
    )
    print(
        f"{'byte identity':>24} {result['byte_identity']['reports']} reports, "
        f"identical={result['byte_identity']['identical']}"
    )
    failures = check(result, quick=args.quick)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
