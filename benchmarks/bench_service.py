"""Service benchmark: cold vs warm cache, concurrent load, bit-identity.

Starts the HTTP serving layer in-process (ephemeral port, temporary cache
directory), measures a cold ``/analyze`` (full pipeline: conversion,
aggregation, minimisation) against warm repeats served from the skeleton
store, then drives a concurrent warm load — each client on one keep-alive
connection, as a pooled HTTP client would be — and reports throughput and
latency percentiles.  The ``service`` section is merged into an existing
``BENCH_fig2.json`` report (or a fresh one is created)::

    PYTHONPATH=src python benchmarks/bench_service.py [BENCH_fig2.json]

Fails (exit 1) if the warm path is not at least 10x faster than the cold
path, if the warm load test's median latency reaches
:data:`MAX_WARM_P50_MS` (a response stalled by Nagle's algorithm waits
~40 ms for the client's delayed ACK), if fewer than 4 clients were
exercised, or if any served response is not bit-identical to the in-process
result.
"""

from __future__ import annotations

import http.client
import json
import statistics
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.core.measures import Unreliability
from repro.core.study import Study, StudyOptions
from repro.dft import galileo
from repro.service.client import ServiceClient
from repro.service.server import serve
from repro.service.store import SkeletonStore
from repro.systems import cardiac_assist_system

NUM_CLIENTS = 4
REQUESTS_PER_CLIENT = 25
WARM_REPEATS = 5
MISSION_TIMES = [0.5, 1.0, 2.0]
SWEEP_ROWS = 48
SWEEP_POOL_PROCESSES = 4
#: Ceiling on the warm load test's median latency (ms).
MAX_WARM_P50_MS = 20.0

SWEEP_TREE = """
param lam = 0.5;
toplevel "sys";
"sys" and "left" "right";
"left" or "a" "b";
"right" or "c" "d";
"a" lambda=lam;
"b" lambda=0.7;
"c" lambda=lam;
"d" lambda=0.9;
"""


def _strip(response: dict) -> dict:
    slim = dict(response)
    slim.pop("timings", None)
    slim.pop("service", None)
    options = dict(slim.get("options", {}))
    options.pop("skeleton_cache", None)
    slim["options"] = options
    return slim


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def bench_service() -> dict:
    tree = cardiac_assist_system()
    text = galileo.write(tree)
    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as cache_dir:
        server = serve(cache_dir, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url)

            start = time.perf_counter()
            cold = client.analyze(text, times=MISSION_TIMES)
            cold_seconds = time.perf_counter() - start

            warm_seconds = float("inf")
            warm = None
            for _ in range(WARM_REPEATS):
                start = time.perf_counter()
                warm = client.analyze(text, times=MISSION_TIMES)
                warm_seconds = min(warm_seconds, time.perf_counter() - start)

            # Bit-identity: the served response must carry exactly what an
            # in-process cached study computes on the same store.
            local = Study(
                galileo.parse(text, name="<request>"),
                StudyOptions(),
                skeleton_cache=SkeletonStore(cache_dir),
            ).evaluate(Unreliability(MISSION_TIMES), on_error="record")
            local_dict = _strip(local.to_dict(include_steps=False))
            bit_identical = (
                _strip(cold) == local_dict and _strip(warm) == local_dict
            )

            # Concurrent load: NUM_CLIENTS threads, warm requests only, each
            # thread on one keep-alive connection (a closing connection
            # flushes the response and would hide a Nagle stall).
            latencies = []
            load_identical = []
            lock = threading.Lock()
            host, port = server.server_address[:2]
            body = json.dumps(
                {"tree": text, "query": {"times": MISSION_TIMES}}
            ).encode("utf-8")

            def client_loop():
                connection = http.client.HTTPConnection(host, port, timeout=60)
                mine = []
                identical = True
                try:
                    for _ in range(REQUESTS_PER_CLIENT):
                        start = time.perf_counter()
                        connection.request(
                            "POST",
                            "/analyze",
                            body=body,
                            headers={"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        payload = response.read()
                        mine.append(time.perf_counter() - start)
                        identical = identical and (
                            response.status == 200
                            and _strip(json.loads(payload)) == local_dict
                        )
                finally:
                    connection.close()
                with lock:
                    latencies.extend(mine)
                    load_identical.append(identical)

            wall_start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=NUM_CLIENTS) as pool:
                for future in [
                    pool.submit(client_loop) for _ in range(NUM_CLIENTS)
                ]:
                    future.result()
            wall_seconds = time.perf_counter() - wall_start

            metrics = client.metrics()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    total_requests = NUM_CLIENTS * REQUESTS_PER_CLIENT
    return {
        "tree": tree.name,
        "mission_times": MISSION_TIMES,
        "cold_analyze_seconds": cold_seconds,
        "warm_analyze_seconds": warm_seconds,
        "warm_speedup": cold_seconds / warm_seconds,
        "bit_identical": bit_identical and all(load_identical),
        "load": {
            "clients": NUM_CLIENTS,
            "requests": total_requests,
            "wall_seconds": wall_seconds,
            "requests_per_second": total_requests / wall_seconds,
            "p50_ms": _percentile(latencies, 0.50) * 1e3,
            "p95_ms": _percentile(latencies, 0.95) * 1e3,
            "mean_ms": statistics.fmean(latencies) * 1e3,
        },
        "server_metrics": metrics["endpoints"].get("/analyze", {}),
    }


def _sweep_rows_per_second(processes: int) -> tuple:
    """Warm sweep throughput against a server with ``processes`` workers."""
    samples = [{"lam": 0.1 + 0.05 * k} for k in range(SWEEP_ROWS)]
    with tempfile.TemporaryDirectory(prefix="repro-sweep-bench-") as cache_dir:
        server = serve(cache_dir, port=0, processes=processes)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url)
            # Warm the skeleton store (and the worker kernels) first so the
            # measurement sees only row evaluation, not the cold build.
            client.sweep(SWEEP_TREE, samples=samples[:1], times=MISSION_TIMES)
            best = float("inf")
            response = None
            for _ in range(WARM_REPEATS):
                start = time.perf_counter()
                response = client.sweep(
                    SWEEP_TREE, samples=samples, times=MISSION_TIMES
                )
                best = min(best, time.perf_counter() - start)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
    return best, response


def bench_sweep_pool() -> dict:
    """Satellite benchmark: `/sweep` rows through the persistent worker pool
    vs the inline engine, same store-warm request."""
    inline_seconds, inline_response = _sweep_rows_per_second(0)
    pooled_seconds, pooled_response = _sweep_rows_per_second(SWEEP_POOL_PROCESSES)
    identical = [
        (row["sample"], row["measures"])
        for row in inline_response["rows"]
    ] == [
        (row["sample"], row["measures"])
        for row in pooled_response["rows"]
    ]
    return {
        "rows": SWEEP_ROWS,
        "pool_processes": SWEEP_POOL_PROCESSES,
        "inline_seconds": inline_seconds,
        "pooled_seconds": pooled_seconds,
        "inline_rows_per_second": SWEEP_ROWS / inline_seconds,
        "pooled_rows_per_second": SWEEP_ROWS / pooled_seconds,
        "pooled_speedup": inline_seconds / pooled_seconds,
        "pooled_used_service_pool": bool(
            pooled_response["options"].get("service_pool", False)
        ),
        "rows_identical": identical,
    }


def main(argv) -> int:
    report_path = Path(argv[1] if len(argv) > 1 else "BENCH_fig2.json")
    section = bench_service()
    section["sweep_pool"] = bench_sweep_pool()

    report = {}
    if report_path.exists():
        report = json.loads(report_path.read_text())
    report["service"] = section
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"service": section}, indent=2, sort_keys=True))

    failures = []
    if not section["sweep_pool"]["rows_identical"]:
        failures.append("pooled sweep rows differ from inline sweep rows")
    if not section["sweep_pool"]["pooled_used_service_pool"]:
        failures.append("pooled sweep fell back to the inline engine")
    if section["warm_speedup"] < 10.0:
        failures.append(
            f"warm analyze only {section['warm_speedup']:.1f}x faster than cold "
            "(need >= 10x)"
        )
    if section["load"]["p50_ms"] >= MAX_WARM_P50_MS:
        failures.append(
            f"warm load p50 {section['load']['p50_ms']:.1f} ms "
            f"(need < {MAX_WARM_P50_MS:.0f} ms)"
        )
    if section["load"]["clients"] < 4:
        failures.append("load test ran fewer than 4 concurrent clients")
    if not section["bit_identical"]:
        failures.append("served responses differ from in-process results")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
