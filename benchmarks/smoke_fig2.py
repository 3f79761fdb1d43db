"""Smoke benchmark: the Figure 2 pipeline plus a scalability spot-check.

Writes ``BENCH_fig2.json`` (in the current directory, or the path given as
the first argument) recording the numbers the perf trajectory tracks:

* Figure 2 compose/hide/aggregate sizes and wall time,
* peak product sizes of the ``modular`` vs ``linked`` orderings on a
  cascaded-PAND family instance,
* wall time of the fused compose+maximal-progress path vs the unfused
  compose-then-reduce baseline,
* weak minimisation of the 8,581-state fused cascaded-PAND product: the
  default engine vs the signature reference (identical quotient, gated
  >= 4x), and a 3,000-state tau chain (identical quotient),
* the modular plan's quotient reuse on repeated modules (aggregate()
  calls vs composition steps, same final model as the linked order) and the
  process's peak RSS,
* curve evaluation on the paper's cascaded-PAND CTMC: one vectorised
  100-point uniformisation sweep (the chain's kernel) vs 100 per-point calls
  of the per-state reference series (the two must agree to 1e-9; the sweep
  must be faster),
* a batch/corpus spot-check over generated random trees,
* a 50-sample failure-rate sweep on the CPS: the sweep engine (one
  aggregation, per-sample kernel refills) vs per-sample instantiation and
  vs 50 naive full-pipeline evaluations — results must agree to 1e-9 and CI
  gates the speedups at >= 1.5x and >= 20x,
* a CTMDP bound sweep on a five-channel race bank: the kernel vs per-sample
  instantiation (1e-12) and vs the pre-kernel reference engine (1e-9,
  gated >= 10x),
* design-space optimisation on the seeded CAS spares scenario: the pruned
  Russian-doll branch-and-bound vs the exhaustive reference — identical
  optimum gated exactly, leaf evaluations gated at <= 50% of the feasible
  designs.

Runs on a plain Python interpreter — no pytest-benchmark required — so CI can
execute it as a single cheap step::

    PYTHONPATH=src python benchmarks/smoke_fig2.py

The per-sample reference rows come from ``tests/sweep_reference.py`` and
the per-state reference series from ``tests/series_reference.py``; the
script puts the repository root on ``sys.path`` to import them.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro import (
    BatchStudy,
    RateSweep,
    Study,
    StudyOptions,
    SweepStudy,
    Unreliability,
    UnreliabilityBounds,
    evaluate,
)
from repro.core.sweep import substitute_parameters, with_rate_parameters
from repro.core import aggregation as core_aggregation
from repro.core import convert, signals
from repro.ioimc import (
    apply_maximal_progress,
    minimize_strong,
    minimize_weak,
    parallel,
    reduction,
    remove_internal_self_loops,
)
from repro.systems import (
    cascaded_pand_family,
    cascaded_pand_system,
    figure2_models,
    pand_race_bank,
    random_corpus,
)

from workloads import largest_minimisation_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.series_reference import (  # noqa: E402
    probability_of_label,
    time_bounded_reachability_curve_reference,
)
from tests.sweep_reference import per_sample_rows  # noqa: E402

MISSION_TIME = 1.0
FAMILY_INSTANCE = (3, 5)  # (AND modules, basic events per module)


def _timed(fn, repeats: int = 3):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def bench_figure2() -> dict:
    def run():
        model_a, model_b = figure2_models(rate=1.0)
        composed = parallel(model_a, model_b)
        hidden = composed.hide(["a"])
        aggregated = minimize_weak(hidden)
        return composed, aggregated

    (composed, aggregated), seconds = _timed(run)
    return {
        "composed_states": composed.num_states,
        "composed_transitions": composed.num_transitions,
        "aggregated_states": aggregated.num_states,
        "aggregated_transitions": aggregated.num_transitions,
        "wall_seconds": seconds,
    }


def bench_orderings(num_modules: int, events_per_module: int) -> dict:
    tree = cascaded_pand_family(num_modules, events_per_module)
    result = {"num_modules": num_modules, "events_per_module": events_per_module}
    for ordering in ("linked", "modular"):
        def run():
            study = Study(tree, StudyOptions(ordering=ordering))
            result = study.evaluate(Unreliability([MISSION_TIME]))
            return result["unreliability"].value, study.statistics

        (value, statistics), seconds = _timed(run)
        result[ordering] = {
            "unreliability": value,
            "peak_product_states": statistics.peak_product_states,
            "peak_product_transitions": statistics.peak_product_transitions,
            "peak_reduced_states": statistics.peak_reduced_states,
            "wall_seconds": seconds,
        }
    return result


def bench_fusion(num_modules: int, events_per_module: int) -> dict:
    tree = cascaded_pand_family(num_modules, events_per_module)
    result = {"num_modules": num_modules, "events_per_module": events_per_module}
    for label, fuse in (("fused", True), ("compose_then_reduce", False)):
        def run():
            study = Study(tree, StudyOptions(ordering="modular", fuse=fuse))
            result = study.evaluate(Unreliability([MISSION_TIME]))
            return result["unreliability"].value, study.statistics

        (value, statistics), seconds = _timed(run)
        result[label] = {
            "unreliability": value,
            "peak_product_states": statistics.peak_product_states,
            "peak_product_transitions": statistics.peak_product_transitions,
            "wall_seconds": seconds,
        }
    return result


def bench_fusion_step(num_modules: int, events_per_module: int) -> dict:
    """Isolated composition step: fused exploration vs compose-then-reduce.

    Composes the two largest community members both ways; the results are
    state-for-state identical, only the route differs.
    """
    tree = cascaded_pand_family(num_modules, events_per_module)
    models = sorted(convert(tree).models(), key=lambda m: -m.num_states)
    left, right = models[0], models[1]

    def fused():
        return parallel(left, right, fuse=True)

    def compose_then_reduce():
        product = parallel(left, right)
        product = apply_maximal_progress(product)
        product = remove_internal_self_loops(product)
        return product.restrict_to_reachable()

    fused_model, fused_seconds = _timed(fused, repeats=5)
    reduced_model, unfused_seconds = _timed(compose_then_reduce, repeats=5)
    assert fused_model.num_states == reduced_model.num_states
    return {
        "left_states": left.num_states,
        "right_states": right.num_states,
        "result_states": fused_model.num_states,
        "result_transitions": fused_model.num_transitions,
        "fused_wall_seconds": fused_seconds,
        "compose_then_reduce_wall_seconds": unfused_seconds,
        "speedup": unfused_seconds / fused_seconds if fused_seconds else None,
    }


def bench_quotient_reuse() -> dict:
    """Repeated modules aggregated once: the modular plan's quotient memo.

    The cascaded-PAND family instance repeats one module structure, so some
    hidden products of a run repeat an earlier one up to action renaming and
    reuse its quotient instead of calling ``aggregate()``.  The modular
    plan's final quotient must equal the linked order's.  Peak RSS is
    recorded so the memory trajectory is tracked per PR.
    """
    tree = cascaded_pand_family(3, 5)
    runs = {}
    for ordering in ("linked", "modular"):
        calls = []

        def counting(model, options=None):
            calls.append(model.num_states)
            return reduction.aggregate(model, options)

        original = core_aggregation.aggregate
        core_aggregation.aggregate = counting
        try:
            start = time.perf_counter()
            study = Study(tree, StudyOptions(ordering=ordering))
            final = study.final_ioimc
            seconds = time.perf_counter() - start
        finally:
            core_aggregation.aggregate = original
        runs[ordering] = {
            "steps": len(study.statistics.steps),
            "aggregate_calls": len(calls),
            "final_states": final.num_states,
            "final_transitions": final.num_transitions,
            "wall_seconds": seconds,
        }
    modular = runs["modular"]
    return {
        **runs,
        "reused_steps": modular["steps"] - modular["aggregate_calls"],
        "same_final_model": all(
            runs["linked"][key] == modular[key]
            for key in ("final_states", "final_transitions")
        ),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def bench_minimisation(num_modules: int = 3, events_per_module: int = 6) -> dict:
    """Weak minimisation on a mid-size fused product: default vs signature.

    One workload, the 8581-state tau-heavy fused product of the (3, 6)
    cascaded-PAND family: the two biggest module chains, each fused with a
    consumer, composed, and all outputs nobody else listens to hidden
    (exactly the shape the aggregation engine hands the minimiser).  The
    default engine must be >= 4x faster than the signature reference (the
    old gates asked 2x of the splitter over the signature engine and 2x of
    the array closure engine over the splitter) and build a byte-identical
    quotient.  The strong minimiser's time is recorded beside them.

    Also checks a 3000-state pure tau chain, whose per-state closures are
    quadratic: the default engine's quotient must equal the signature
    engine's.
    """
    from repro.ioimc import IOIMC, signature

    workload = largest_minimisation_workload(num_modules, events_per_module)
    # Identical best-of-3 policy for both engines — the gated speedup must
    # not be skewed by a one-off stall on either side.
    default_model, default_seconds = _timed(lambda: minimize_weak(workload))
    signature_model, signature_seconds = _timed(
        lambda: minimize_weak(workload, algorithm="signature")
    )
    strong_model, strong_seconds = _timed(lambda: minimize_strong(workload))

    chain = IOIMC("deep-tau-chain", signature(internals=("tick",)))
    for _ in range(3000):
        chain.add_state()
    for state in range(chain.num_states - 1):
        chain.add_interactive(state, "tick", state + 1)
    chain.set_labels(chain.num_states - 1, {"failed"})
    chain.set_initial(0)
    chain_model, chain_seconds = _timed(lambda: minimize_weak(chain), repeats=1)
    chain_reference = minimize_weak(chain, algorithm="signature")

    return {
        "num_modules": num_modules,
        "events_per_module": events_per_module,
        "input_states": workload.num_states,
        "input_transitions": workload.num_transitions,
        "quotient_states": default_model.num_states,
        "quotient_transitions": default_model.num_transitions,
        "strong_states": strong_model.num_states,
        "default_wall_seconds": default_seconds,
        "signature_wall_seconds": signature_seconds,
        "strong_wall_seconds": strong_seconds,
        "speedup": signature_seconds / default_seconds if default_seconds else None,
        "identical_quotients": default_model.to_dot() == signature_model.to_dot(),
        "deep_tau_chain": {
            "chain_states": chain.num_states,
            "quotient_states": chain_model.num_states,
            "default_wall_seconds": chain_seconds,
            "identical_quotients": chain_model.to_dot() == chain_reference.to_dot(),
        },
    }


def bench_curve(num_points: int = 100, horizon: float = 5.0) -> dict:
    """100-point unreliability curve: one vectorised sweep vs per-point calls.

    This is the PR's acceptance check: on the paper's cascaded-PAND system
    the shared ``pi(0)·P^k`` series must reproduce per-point uniformisation
    to 1e-9 while being measurably faster.
    """
    model = Study(cascaded_pand_system()).markov_model
    times = np.linspace(0.0, horizon, num_points)

    def vectorised():
        return model.probability_of_label_curve(signals.FAILED_LABEL, times)

    def per_point():
        return np.array(
            [probability_of_label(model, signals.FAILED_LABEL, float(t)) for t in times]
        )

    curve, vectorised_seconds = _timed(vectorised)
    reference, per_point_seconds = _timed(per_point)
    return {
        "num_points": num_points,
        "states": model.num_states,
        "vectorised_wall_seconds": vectorised_seconds,
        "per_point_wall_seconds": per_point_seconds,
        "speedup": per_point_seconds / vectorised_seconds if vectorised_seconds else None,
        "max_abs_difference": float(np.max(np.abs(curve - reference))),
    }


def bench_batch(corpus_size: int = 6, num_basic_events: int = 6) -> dict:
    """Corpus throughput spot-check over generated random trees."""
    trees = random_corpus(corpus_size, num_basic_events=num_basic_events, seed=0)
    batch = BatchStudy(trees, Unreliability([1.0]))
    result, seconds = _timed(lambda: batch.run(), repeats=1)
    return {
        "corpus_size": corpus_size,
        "num_basic_events": num_basic_events,
        "failed": result.num_failed,
        "wall_seconds": seconds,
        "mean_tree_seconds": result.tree_seconds / len(result),
    }


def bench_sweep(num_samples: int = 50, mission_time: float = 1.0) -> dict:
    """50-sample CPS rate sweep: shared-structure kernel vs per-sample vs naive.

    Three engines on identical samples:

    * the shared-structure kernel (one CSR pattern, per-sample data refills),
    * per-sample instantiation (a full CTMC per sample, the test-side
      reference rows) — the kernel must beat its per-sample cost by >= 1.5x
      (gated in CI),
    * ``num_samples`` naive full-pipeline evaluations — the sweep must beat
      them by >= 20x while agreeing to 1e-9 on every sample (gated in CI).

    Also records the kernel's instantiate-vs-solve per-sample split and a
    parallel-scaling spot check (``processes=2`` must reproduce the serial
    rows bit-for-bit).
    """
    events = {f"{m}{i}": "lam" for m in ("A", "C", "D") for i in range(1, 5)}
    tree = with_rate_parameters(cascaded_pand_system(), events)
    samples = [{"lam": 0.1 + 0.04 * index} for index in range(num_samples)]
    query = Unreliability([mission_time])

    def swept():
        return SweepStudy(tree).run(RateSweep(query, samples))

    def naive():
        return [
            evaluate(substitute_parameters(tree, sample), query) for sample in samples
        ]

    # Best-of-3 for the sweep (a fresh SweepStudy each repeat keeps the
    # shared pipeline honestly inside the measurement; min-of discards
    # one-off cold-cache stalls); the naive side runs 50 pipelines per
    # repeat and is self-averaging.
    result, sweep_seconds = _timed(swept)
    references, naive_seconds = _timed(naive, repeats=1)
    worst = max(
        abs(row["unreliability"].values[0] - ref["unreliability"].values[0])
        for row, ref in zip(result.rows, references)
    )

    # Kernel vs per-sample cost, on one warm study (pipeline excluded,
    # best-of-3 so a one-off stall cannot skew the gated ratio either way).
    warm = SweepStudy(tree)
    skeleton = warm.skeleton
    kernel_result, kernel_samples_seconds = _timed(
        lambda: warm.run(RateSweep(query, samples))
    )
    legacy_rows, legacy_samples_seconds = _timed(
        lambda: per_sample_rows(skeleton, query, samples, tree.parameters)
    )
    kernel_vs_legacy_difference = max(
        abs(a - b)
        for mine, theirs in zip(kernel_result.rows, legacy_rows)
        for a, b in zip(mine["unreliability"].values, theirs["unreliability"].values)
    )

    # Parallel scaling spot check: rows must be bit-identical to serial.
    parallel_result, parallel_seconds = _timed(
        lambda: warm.run(RateSweep(query, samples), processes=2), repeats=1
    )
    rows_identical = all(
        mine.sample == theirs.sample and mine.measures == theirs.measures
        for mine, theirs in zip(kernel_result.rows, parallel_result.rows)
    )

    return {
        "num_samples": num_samples,
        "failed_rows": result.num_failed,
        "shared_pipeline_seconds": result.timings["shared"],
        "per_sample_seconds": result.timings["samples"] / num_samples,
        "instantiate_seconds_per_sample": result.timings["instantiate"] / num_samples,
        "solve_seconds_per_sample": result.timings["solve"] / num_samples,
        "kernel_samples_seconds": kernel_samples_seconds,
        "legacy_samples_seconds": legacy_samples_seconds,
        "kernel_vs_legacy_difference": kernel_vs_legacy_difference,
        "structure_speedup": (
            legacy_samples_seconds / kernel_samples_seconds
            if kernel_samples_seconds
            else None
        ),
        "parallel": {
            "processes": 2,
            "samples_wall_seconds": parallel_seconds,
            "rows_identical_to_serial": rows_identical,
        },
        "sweep_wall_seconds": sweep_seconds,
        "naive_wall_seconds": naive_seconds,
        "speedup": naive_seconds / sweep_seconds if sweep_seconds else None,
        "max_abs_difference": worst,
    }


def bench_ctmdp_kernel(channels: int = 5, num_samples: int = 8) -> dict:
    """CTMDP bound sweep: shared-structure kernel vs legacy per-sample engine.

    The workload is a ``pand_race_bank`` instance — an AND of five FDEP/PAND
    simultaneity races whose aggregated model stays a genuine CTMDP (455
    states, rates staggered so no two channels are symmetric).  Three engines
    on identical samples and mission times:

    * the ``CtmdpKernel`` sweep path (one CSR pattern + vanishing-resolver
      shared across samples, per-sample data refills),
    * per-sample instantiation (the test-side reference rows: a concrete
      CTMDP per sample feeding its kernel-backed curve) — bounds must agree
      to 1e-12,
    * the legacy pre-kernel engine (per-sample ``instantiate`` plus
      ``time_bounded_reachability_curve_reference`` in both directions, i.e.
      the dense per-step round-robin code path) — bounds must agree to 1e-9
      and the kernel sweep must beat it by >= 10x (measured ~20x).
    """
    tree = with_rate_parameters(pand_race_bank(channels))
    times = (0.25, 0.5, 1.0, 2.0)
    query = UnreliabilityBounds(times)
    scales = [0.35, 0.6, 0.85, 1.0, 1.3, 1.7, 2.2, 2.9][:num_samples]
    samples = [
        {
            name: max(0.05, min(5.0, nominal * scale))
            for name, nominal in tree.parameters.items()
        }
        for scale in scales
    ]

    study = SweepStudy(tree)
    skeleton = study.skeleton  # warm the shared pipeline outside the timing
    kernel_result, kernel_seconds = _timed(
        lambda: study.run(RateSweep(query, samples))
    )
    per_sample_result = per_sample_rows(skeleton, query, samples, tree.parameters)

    def legacy():
        rows = []
        for sample in samples:
            model = skeleton.instantiate(sample)
            low = time_bounded_reachability_curve_reference(
                model, signals.FAILED_LABEL, times, maximize=False
            )
            high = time_bounded_reachability_curve_reference(
                model, signals.FAILED_LABEL, times, maximize=True
            )
            rows.append((low, high))
        return rows

    legacy_rows, legacy_seconds = _timed(legacy, repeats=1)

    def worst_row_difference(reference_rows):
        worst = 0.0
        for row, (low, high) in zip(kernel_result.rows, reference_rows):
            bounds = row["unreliability_bounds"]
            worst = max(
                worst,
                float(np.max(np.abs(np.asarray(bounds.lower) - low))),
                float(np.max(np.abs(np.asarray(bounds.upper) - high))),
            )
        return worst

    per_sample_bounds = [
        (
            np.asarray(row["unreliability_bounds"].lower),
            np.asarray(row["unreliability_bounds"].upper),
        )
        for row in per_sample_result
    ]
    return {
        "channels": channels,
        "states": skeleton.num_states,
        "num_samples": num_samples,
        "num_times": len(times),
        "failed_rows": kernel_result.num_failed,
        "kernel_wall_seconds": kernel_seconds,
        "legacy_wall_seconds": legacy_seconds,
        "speedup": legacy_seconds / kernel_seconds if kernel_seconds else None,
        "kernel_vs_per_sample_difference": worst_row_difference(per_sample_bounds),
        "kernel_vs_reference_difference": worst_row_difference(legacy_rows),
    }


def bench_optimize() -> dict:
    """Design-space optimisation on the seeded CAS spares scenario.

    Runs the Russian-doll branch-and-bound and the exhaustive reference on
    the same 72-design (36 feasible) problem.  CI gates that the pruned
    search returns the *identical* optimal design and value while evaluating
    at most 50% of the feasible leaves (measured ~22%); the recorded
    pruning ratio is what the trajectory tracks.
    """
    from repro import optimize
    from repro.systems import cas_spares_scenario

    pruned, pruned_seconds = _timed(
        lambda: optimize(cas_spares_scenario()), repeats=1
    )
    exhaustive, exhaustive_seconds = _timed(
        lambda: optimize(cas_spares_scenario(), exhaustive=True), repeats=1
    )
    return {
        "space_size": cas_spares_scenario().space_size,
        "leaves_feasible": pruned.leaves_feasible,
        "leaves_evaluated": pruned.leaves_evaluated,
        "bound_evaluations": pruned.bound_evaluations,
        "pruned_by_cost": pruned.pruned_by_cost,
        "pruned_by_table": pruned.pruned_by_table,
        "pruned_by_envelope": pruned.pruned_by_envelope,
        "pruning_ratio": pruned.pruning_ratio,
        "best_value": pruned.best_value,
        "best_design": [choice.option_index for choice in pruned.best_design],
        "exhaustive_value": exhaustive.best_value,
        "exhaustive_design": [
            choice.option_index for choice in exhaustive.best_design
        ],
        "pruned_wall_seconds": pruned_seconds,
        "exhaustive_wall_seconds": exhaustive_seconds,
        "speedup": (
            exhaustive_seconds / pruned_seconds if pruned_seconds else None
        ),
    }


def main(argv) -> int:
    output_path = argv[1] if len(argv) > 1 else "BENCH_fig2.json"
    report = {
        "python": platform.python_version(),
        "figure2": bench_figure2(),
        "orderings": bench_orderings(*FAMILY_INSTANCE),
        "fusion": bench_fusion(*FAMILY_INSTANCE),
        "fusion_step": bench_fusion_step(3, 6),
        "quotient_reuse": bench_quotient_reuse(),
        "minimisation": bench_minimisation(3, 6),
        "curve": bench_curve(),
        "batch": bench_batch(),
        "sweep": bench_sweep(),
        "ctmdp_kernel": bench_ctmdp_kernel(),
        "optimize": bench_optimize(),
    }
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))

    orderings = report["orderings"]
    if orderings["modular"]["peak_product_states"] > orderings["linked"]["peak_product_states"]:
        print("FAIL: modular ordering exceeded the linked peak", file=sys.stderr)
        return 1
    reuse = report["quotient_reuse"]
    if not reuse["same_final_model"] or reuse["reused_steps"] < 1:
        print(
            "FAIL: the modular plan's final quotient differs from the linked "
            "order's, or no repeated module reused its quotient",
            file=sys.stderr,
        )
        return 1
    minimisation = report["minimisation"]
    if not minimisation["identical_quotients"]:
        print("FAIL: default and signature minimisers disagree", file=sys.stderr)
        return 1
    if not minimisation["deep_tau_chain"]["identical_quotients"]:
        print(
            "FAIL: default and signature minimisers disagree on the deep tau chain",
            file=sys.stderr,
        )
        return 1
    # The default engine must be >= 4x faster than the signature reference
    # on the 8581-state weak workload (measured 13.6x on a 2-vCPU host; the
    # margin absorbs loaded shared runners).
    if minimisation["speedup"] is None or minimisation["speedup"] < 4.0:
        print(
            "FAIL: default weak minimisation is not >= 4x faster than the "
            f"signature engine (got {minimisation['speedup']})",
            file=sys.stderr,
        )
        return 1
    curve = report["curve"]
    if curve["max_abs_difference"] > 1e-9:
        print("FAIL: vectorised curve deviates from per-point evaluation", file=sys.stderr)
        return 1
    if curve["vectorised_wall_seconds"] >= curve["per_point_wall_seconds"]:
        print("FAIL: vectorised curve evaluation is not faster", file=sys.stderr)
        return 1
    if report["batch"]["failed"]:
        print("FAIL: batch corpus run had failing trees", file=sys.stderr)
        return 1
    sweep = report["sweep"]
    if sweep["failed_rows"]:
        print("FAIL: rate sweep had failing sample rows", file=sys.stderr)
        return 1
    if sweep["max_abs_difference"] > 1e-9:
        print("FAIL: rate sweep deviates from naive per-sample re-runs", file=sys.stderr)
        return 1
    if sweep["kernel_vs_legacy_difference"] > 1e-9:
        print(
            "FAIL: the shared-structure kernel deviates from per-sample "
            "instantiation",
            file=sys.stderr,
        )
        return 1
    # Acceptance gate of the shared-structure kernel PR: aggregate-once plus
    # in-place CSR refills must beat 50 naive pipeline runs by >= 20x
    # (measured ~30x; PR 4's per-sample instantiation managed ~12x).
    if sweep["speedup"] is None or sweep["speedup"] < 20.0:
        print(
            "FAIL: the rate-sweep engine is not >= 20x faster than naive "
            f"per-sample re-runs (got {sweep['speedup']})",
            file=sys.stderr,
        )
        return 1
    # The kernel itself must beat per-sample instantiation by >= 1.5x
    # (measured ~4-6x; the gate has margin for loaded shared runners).
    if sweep["structure_speedup"] is None or sweep["structure_speedup"] < 1.5:
        print(
            "FAIL: the shared-structure kernel is not >= 1.5x faster per "
            f"sample than full instantiation (got {sweep['structure_speedup']})",
            file=sys.stderr,
        )
        return 1
    if not sweep["parallel"]["rows_identical_to_serial"]:
        print(
            "FAIL: parallel sweep rows differ from the serial rows",
            file=sys.stderr,
        )
        return 1
    ctmdp = report["ctmdp_kernel"]
    if ctmdp["failed_rows"]:
        print("FAIL: CTMDP bound sweep had failing sample rows", file=sys.stderr)
        return 1
    # Bound identity: the kernel sweep and the per-sample instantiation path
    # share the uniformised backward sweep, so their rows must agree to
    # 1e-12 (measured exactly 0.0).
    if ctmdp["kernel_vs_per_sample_difference"] > 1e-12:
        print(
            "FAIL: CTMDP kernel bounds deviate from per-sample instantiation "
            f"(got {ctmdp['kernel_vs_per_sample_difference']})",
            file=sys.stderr,
        )
        return 1
    if ctmdp["kernel_vs_reference_difference"] > 1e-9:
        print(
            "FAIL: CTMDP kernel bounds deviate from the legacy reference "
            f"engine (got {ctmdp['kernel_vs_reference_difference']})",
            file=sys.stderr,
        )
        return 1
    # Acceptance gate of the CTMDP-kernel PR: the shared-structure backward
    # sweep must beat the legacy dense per-sample engine >= 10x on the
    # 455-state race bank (measured ~20x; the margin absorbs loaded runners).
    if ctmdp["speedup"] is None or ctmdp["speedup"] < 10.0:
        print(
            "FAIL: the CTMDP kernel sweep is not >= 10x faster than the "
            f"legacy per-sample engine (got {ctmdp['speedup']})",
            file=sys.stderr,
        )
        return 1
    opt = report["optimize"]
    # Acceptance gates of the design-space optimisation PR: the pruned
    # branch-and-bound must return exactly the brute-force optimum...
    if opt["best_design"] != opt["exhaustive_design"]:
        print(
            "FAIL: pruned optimisation picked a different design than the "
            f"exhaustive reference ({opt['best_design']} vs "
            f"{opt['exhaustive_design']})",
            file=sys.stderr,
        )
        return 1
    if abs(opt["best_value"] - opt["exhaustive_value"]) > 1e-12:
        print(
            "FAIL: pruned optimisation value deviates from the exhaustive "
            f"reference ({opt['best_value']} vs {opt['exhaustive_value']})",
            file=sys.stderr,
        )
        return 1
    # ...while evaluating at most half the feasible leaves (measured ~22%
    # on the seeded CAS scenario — 8 of 36).
    if opt["leaves_evaluated"] > 0.5 * opt["leaves_feasible"]:
        print(
            "FAIL: the branch-and-bound evaluated more than 50% of the "
            f"feasible leaves ({opt['leaves_evaluated']} of "
            f"{opt['leaves_feasible']})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
