"""Service smoke for CI: a real ``repro serve`` subprocess under load.

Starts ``python -m repro serve`` on an ephemeral port (``--port 0``), parses
the advertised URL from its stdout, fires mixed concurrent requests
(analyze / sweep / batch / healthz / metrics) from several client threads
and asserts every served response is bit-identical to the in-process
result on the same skeleton cache.  ``--processes N`` starts the server
with a worker pool of N processes, so ``/analyze``, ``/sweep`` and
``/batch`` are evaluated by the pool; the smoke then also fails if a sweep
did not run on the pool or the pool fell back to in-process evaluation.
Either way it fails unless the service's request cache answered the
repeated CAS texts: only each client's first CAS request may be parsed.
The server is torn down in a ``finally`` block — a failing assertion must
not leave an orphan process::

    PYTHONPATH=src python benchmarks/smoke_service.py
    PYTHONPATH=src python benchmarks/smoke_service.py --processes 2
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, REPO_SRC)

from repro.core.measures import MTTF, Unreliability  # noqa: E402
from repro.core.study import Study, StudyOptions  # noqa: E402
from repro.core.sweep import RateSweep, SweepStudy  # noqa: E402
from repro.dft import galileo  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.store import SkeletonStore  # noqa: E402
from repro.systems import cardiac_assist_system  # noqa: E402

PARAM_TREE = """
param lam = 0.5;
toplevel "sys";
"sys" or "a" "b";
"a" lambda=lam;
"b" lambda=0.7;
"""

NUM_CLIENTS = 4
ROUNDS_PER_CLIENT = 3
STARTUP_TIMEOUT = 60.0


def _strip(response: dict) -> dict:
    slim = dict(response)
    slim.pop("timings", None)
    slim.pop("service", None)
    options = dict(slim.get("options", {}))
    options.pop("skeleton_cache", None)
    slim["options"] = options
    return slim


def _start_server(cache_dir: str, processes: int) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--cache-dir",
            cache_dir,
            "--port",
            "0",
            "--processes",
            str(processes),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        # Its own process group holds the server and its pool workers.
        start_new_session=True,
    )


def _stop_server(process: subprocess.Popen) -> bool:
    """Stop the server with SIGTERM, as ``kill`` or a container stop would,
    then kill whatever is left of its process group.  Returns whether the
    server exited 0 with nothing of its group left: on SIGTERM it shuts its
    worker pool down before it exits."""
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        clean = True
    else:
        clean = False
    process.wait(timeout=10)
    return clean and process.returncode == 0


def _read_url(process: subprocess.Popen) -> str:
    """Parse the advertised URL from the startup banner, with a watchdog."""
    banner = {}

    def reader():
        line = process.stdout.readline()
        if line.startswith("serving on "):
            banner["url"] = line.split()[2]
        else:
            banner["error"] = line

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(STARTUP_TIMEOUT)
    if "url" not in banner:
        raise RuntimeError(f"server did not start: {banner.get('error', 'timeout')}")
    return banner["url"]


def run(processes: int = 0) -> int:
    cas_text = galileo.write(cardiac_assist_system())
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as cache_dir:
        process = _start_server(cache_dir, processes)
        try:
            url = _read_url(process)
            client = ServiceClient(url)

            def mixed_round(_):
                worker = ServiceClient(url)
                return (
                    worker.analyze(cas_text, times=[1.0, 2.0], mttf=True),
                    worker.sweep(PARAM_TREE, axes={"lam": [0.1, 0.5, 1.0]}),
                    worker.batch([cas_text, cas_text], times=[1.0]),
                    worker.healthz(),
                )

            with ThreadPoolExecutor(max_workers=NUM_CLIENTS) as pool:
                rounds = list(
                    pool.map(mixed_round, range(NUM_CLIENTS * ROUNDS_PER_CLIENT))
                )

            # In-process references on the same (server-populated) cache.
            store = SkeletonStore(cache_dir)
            local_analyze = _strip(
                Study(
                    galileo.parse(cas_text, name="<request>"),
                    StudyOptions(),
                    skeleton_cache=store,
                )
                .evaluate(Unreliability([1.0, 2.0]) + MTTF(), on_error="record")
                .to_dict(include_steps=False)
            )
            local_sweep = SweepStudy(
                galileo.parse(PARAM_TREE, name="<request>"),
                StudyOptions(),
                skeleton_cache=store,
            ).run(RateSweep.grid(Unreliability([1.0]), lam=[0.1, 0.5, 1.0]))
            local_rows = local_sweep.to_dict()["rows"]
            local_batch_measures = (
                Study(
                    galileo.parse(cas_text, name="<request>"),
                    StudyOptions(),
                    skeleton_cache=store,
                )
                .evaluate(Unreliability([1.0]), on_error="record")
                .to_dict(include_steps=False)["measures"]
            )

            for analyze, sweep, batch, health in rounds:
                if _strip(analyze) != local_analyze:
                    print("FAIL: served analyze differs from in-process", file=sys.stderr)
                    return 1
                if processes and not sweep["options"].get("service_pool"):
                    print("FAIL: sweep did not run on the worker pool", file=sys.stderr)
                    return 1
                if len(sweep["rows"]) != len(local_rows):
                    print("FAIL: served sweep has the wrong row count", file=sys.stderr)
                    return 1
                for mine, theirs in zip(sweep["rows"], local_rows):
                    if (
                        mine["sample"] != theirs["sample"]
                        or mine["measures"] != theirs["measures"]
                    ):
                        print(
                            "FAIL: served sweep row differs from in-process",
                            file=sys.stderr,
                        )
                        return 1
                if batch["aggregate"]["failed"] != 0:
                    print("FAIL: batch reported failures", file=sys.stderr)
                    return 1
                for row in batch["rows"]:
                    if row["result"]["measures"] != local_batch_measures:
                        print(
                            "FAIL: served batch row differs from in-process",
                            file=sys.stderr,
                        )
                        return 1
                if health["status"] != "ok":
                    print("FAIL: healthz not ok", file=sys.stderr)
                    return 1

            metrics = client.metrics()
            if metrics["pool_fallbacks"]:
                print(
                    f"FAIL: {metrics['pool_fallbacks']} pool fallback(s)",
                    file=sys.stderr,
                )
                return 1
            # One analyze and a batch of two CAS texts per round.
            cas_texts = 3 * len(rounds)
            if metrics["masked_hits"] < cas_texts - NUM_CLIENTS:
                print(
                    f"FAIL: the request cache answered {metrics['masked_hits']} of "
                    f"{cas_texts} CAS texts ({metrics['masked_fallbacks']})",
                    file=sys.stderr,
                )
                return 1
            analyze_metrics = metrics["endpoints"]["/analyze"]
            print(
                f"service smoke ok: {len(rounds)} mixed rounds from "
                f"{NUM_CLIENTS} clients on {processes} pool workers, "
                f"{analyze_metrics['requests']} analyze "
                f"requests, p95 {analyze_metrics['p95_ms']:.1f} ms, "
                f"{metrics['store']['entries']} cache entries, "
                f"{metrics['masked_hits']} request-cache hits"
            )
        finally:
            stopped = _stop_server(process)
    if not stopped:
        print(
            f"FAIL: the server exited {process.returncode} on SIGTERM or left "
            "processes of its group running",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--processes",
        type=int,
        default=0,
        help="worker pool size of the served process (default: 0, no pool)",
    )
    sys.exit(run(parser.parse_args().processes))
