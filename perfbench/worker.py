"""Runs one phase of one workload in its own process.

    python3 perfbench/worker.py --workload NAME --seed N --phase setup|run|trace --seconds S

``setup`` sets the workload up and reports ``setup_s``; ``run`` sets up,
runs the timed body untraced, checks the outputs and reports the
end-to-end metrics; ``trace`` reports the per-layer metrics of one
untraced and one traced pass.  The last line of standard output is one
JSON object.  ``perfbench/run.py`` starts this script; a fresh process per
phase keeps imports inside ``setup_s`` and peak memory per workload.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def latencies(ops: dict, what: str) -> list:
    """Each op's median repeat, in ms; percentiles are taken over ops."""
    if len(ops) < 2:
        raise RuntimeError(f"only {len(ops)} {what} ops were measured")
    return [statistics.median(repeats) for repeats in ops.values()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    import inputs
    import workloads
    import yardstick
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]()
    log = workloads.OpLog()
    if args.phase == "trace":
        tracer = Tracer()
        metrics = workload.trace(args.seed, tracer, log)
        tracer.write(workloads.WORK_DIR / f"trace-{args.workload}-{args.seed}.json")
        result = {"metrics": metrics}
    else:
        try:
            workload.setup(args.seed)
            setup_s = time.perf_counter() - STARTED
            if workload.scaled:
                setup_s *= yardstick.factor()
            if args.phase == "setup":
                print(json.dumps({"setup_s": setup_s}))
                return 0
            workload.timed(args.seconds, log)
            peak_rss_mb = workload.peak_rss_mb()
            workload.stop()
            workload.check(log)
        finally:
            workload.close()
        warm = latencies(log.warm, "warm")
        cold = latencies(log.cold, "cold")
        result = {
            "metrics": {
                "setup_s": setup_s,
                "ops_per_s": sum(log.unit_ops.values())
                / sum(statistics.median(repeats) for repeats in log.units.values()),
                "peak_rss_mb": peak_rss_mb,
                "warm_p50_ms": statistics.median(warm),
                "warm_p90_ms": statistics.quantiles(warm, n=10, method="inclusive")[-1],
                "cold_p50_ms": statistics.median(cold),
            },
            "samples": {
                "passes": log.passes,
                "warm_ops": len(warm),
                "cold_ops": len(cold),
                "repeats": sum(len(r) for r in log.warm.values()) + sum(len(r) for r in log.cold.values()),
            },
        }
    result.update(
        attempted=log.attempted,
        failed=log.failed,
        problems=log.problems + inputs.self_test(args.seed),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
