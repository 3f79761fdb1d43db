"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cold_ladder, rate_sweep, service_mixed (see
``perfbench/README.md``).  Run from the repository root; the program is
imported from ``src/``.  With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is the result::

    {"correct": true, "attempted": 1, "failed": 0, "metrics": {"name": {"value": 1.0, "unit": "s"}}}

Every phase runs in a fresh worker process (``perfbench/worker.py``) in its
own process group, which is killed if the run overstays its time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: Extra fresh processes that only set up; setup_s is the median of these
#: and the measured run's own set-up.  Single set-ups (one or two seconds,
#: mostly imports and skeleton builds) spread by a third or more, so seven
#: set-ups straddle the host's slow spells; the service's
#: (server start and store warm-up, about 4.5 s) is steadier and three keep
#: its runs short.
SETUP_PROBES = {"cold_ladder": 6, "rate_sweep": 6, "service_mixed": 2}
#: Whole-run budget in seconds, below the 180 s a run may take.
BUDGET = 170.0

#: Workloads, metric names and units, as BENCHMARK.json declares them.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in DECLARED["per_layer"]}
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


class WorkerError(RuntimeError):
    pass


def run_worker(arguments, deadline: float) -> dict:
    """Run one worker phase; its last stdout line is its JSON result."""
    process = subprocess.Popen(
        [sys.executable, str(WORKER), *arguments],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(arguments)} ran out of time") from None
    finally:
        # The worker's group holds any server it started: stop them all.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise WorkerError(f"worker {' '.join(arguments)} exited with {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {' '.join(arguments)} printed no result")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            result = run_worker(common + ["--phase", "trace"], deadline)
            units = PER_LAYER
        else:
            probes = [
                run_worker(common + ["--phase", "setup"], deadline)["setup_s"]
                for _ in range(SETUP_PROBES[args.workload])
            ]
            result = run_worker(
                common + ["--phase", "run", "--seconds", str(args.seconds)], deadline
            )
            result["metrics"]["setup_s"] = statistics.median(
                probes + [result["metrics"]["setup_s"]]
            )
            units = END_TO_END
            print(f"samples: {result['samples']}", file=sys.stderr)
    except WorkerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = result["metrics"]
    if args.trace:
        # Layers a workload never runs report 0.
        metrics = {name: metrics.get(name, 0.0) for name in units}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
