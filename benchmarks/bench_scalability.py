"""E9 — scalability sweep over the cascaded-PAND family (extends Section 5.2).

The paper makes its state-space argument on a single instance (3 modules of 4
basic events).  This benchmark sweeps the family and records, per instance,
the peak intermediate I/O-IMC of the compositional pipeline next to the size
of the monolithic DIFTree chain.  The expected shape: the monolithic chain
grows exponentially with the number of basic events while the compositional
peak stays small (the per-module chains lump to their failure-count skeleton).
"""

import os
import resource
import time

import pytest

import numpy as np

from repro import (
    RateSweep,
    Study,
    StudyOptions,
    SweepStudy,
    UnreliabilityBounds,
)
from repro.baselines import MonolithicMarkovGenerator
from repro.core import signals
from repro.core.sweep import with_rate_parameters
from repro.ioimc import minimize_strong, minimize_weak
from repro.systems import cascaded_pand_family, pand_race_bank

from conftest import record, unreliability
from tests.series_reference import time_bounded_reachability_curve_reference
from workloads import largest_minimisation_workload, tau_heavy_chain

MISSION_TIME = 1.0

#: (number of AND modules, basic events per module)
SWEEP = [(3, 2), (3, 3), (3, 4), (4, 3)]

#: Larger configurations (more modules, deeper per-module chains) that the
#: signature-refinement minimiser made impractical to sweep routinely; the
#: default engine runs the full pipeline on them in well under a second.
LARGE_SWEEP = [(4, 5), (5, 4), (5, 5), (6, 5)]

#: Isolated weak-minimisation workloads: (modules, events) pairs whose
#: largest tau-heavy intermediate product is minimised with both engines.
MINIMISATION_SWEEP = [(3, 5), (3, 6)]

#: The biggest tier (tens of thousands of product states) is skipped by
#: default — the signature reference needs minutes there.  Opt in with
#: ``RUN_BIG_BENCH=1 pytest benchmarks/bench_scalability.py``.
BIG_MINIMISATION_SWEEP = [(3, 7), (4, 6)]

#: Tau-heavy chain sizes for the growth tier: each size quadruples the
#: refinement work of the previous one (the chain quotient is the input
#: itself, so the engines split to singletons).  Grown until the *state
#: count* — not wall time — is the practical limit on a CI runner; peak RSS
#: is recorded alongside so the memory trajectory is tracked per PR.
GROWTH_SWEEP = [8_581, 20_000, 40_000]

big_tier = pytest.mark.skipif(
    os.environ.get("RUN_BIG_BENCH") != "1",
    reason="biggest scalability tier; set RUN_BIG_BENCH=1 to run",
)


def _peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in kilobytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _best_of(function, repeats):
    """``(last result, best wall seconds)`` over ``repeats`` timed runs."""
    result, best = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _benchmark_min(benchmark, function, repeats):
    """The fixture's fastest round of ``function``.

    Under ``--benchmark-disable`` the fixture runs ``function`` once and
    keeps no statistics; the best of ``repeats`` manual runs stands in.
    """
    if benchmark.stats is not None:
        return benchmark.stats.stats.min
    return _best_of(function, repeats)[1]


@pytest.mark.benchmark(group="scalability-compositional")
@pytest.mark.parametrize("num_modules,events_per_module", SWEEP)
def test_compositional_scaling(benchmark, num_modules, events_per_module):
    tree = cascaded_pand_family(num_modules, events_per_module)

    def run():
        study = Study(tree)
        return unreliability(study, MISSION_TIME), study.statistics

    value, statistics = benchmark(run)
    record(
        benchmark,
        experiment="E9 (scalability, compositional)",
        num_modules=num_modules,
        events_per_module=events_per_module,
        basic_events=num_modules * events_per_module,
        unreliability=value,
        peak_product_states=statistics.peak_product_states,
        peak_product_transitions=statistics.peak_product_transitions,
    )
    assert 0.0 <= value <= 1.0
    # The compositional peak grows mildly with the module size, never
    # exponentially in the total number of basic events.
    assert statistics.peak_product_states < 60 * events_per_module * num_modules


@pytest.mark.benchmark(group="scalability-monolithic")
@pytest.mark.parametrize("num_modules,events_per_module", SWEEP)
def test_monolithic_scaling(benchmark, num_modules, events_per_module):
    tree = cascaded_pand_family(num_modules, events_per_module)

    def run():
        return MonolithicMarkovGenerator(tree).build()

    built = benchmark(run)
    record(
        benchmark,
        experiment="E9 (scalability, DIFTree monolithic)",
        num_modules=num_modules,
        events_per_module=events_per_module,
        basic_events=num_modules * events_per_module,
        states=built.num_states,
        transitions=built.num_transitions,
    )
    # Exponential growth in the number of basic events: at least one state per
    # subset of basic events that can fail before the system does.
    assert built.num_states >= 2 ** (num_modules * (events_per_module - 1))


@pytest.mark.benchmark(group="scalability-ordering")
@pytest.mark.parametrize("num_modules,events_per_module", SWEEP)
def test_modular_plan_peak_not_worse_than_linked(
    benchmark, num_modules, events_per_module
):
    """The precomputed modular plan must not inflate the peak product."""
    tree = cascaded_pand_family(num_modules, events_per_module)

    def run():
        return Study(tree, StudyOptions(ordering="modular")).statistics

    modular_stats = benchmark(run)
    linked_stats = Study(tree, StudyOptions(ordering="linked")).statistics
    record(
        benchmark,
        experiment="E11 (modular plan vs linked ordering)",
        num_modules=num_modules,
        events_per_module=events_per_module,
        modular_peak_product_states=modular_stats.peak_product_states,
        linked_peak_product_states=linked_stats.peak_product_states,
        modular_peak_product_transitions=modular_stats.peak_product_transitions,
        linked_peak_product_transitions=linked_stats.peak_product_transitions,
    )
    assert modular_stats.peak_product_states <= linked_stats.peak_product_states


@pytest.mark.benchmark(group="scalability-fusion")
def test_fused_composition_faster_than_compose_then_reduce(benchmark):
    """Fusing maximal progress into the product exploration beats composing
    first and reducing afterwards, and never inflates the recorded peaks."""
    tree = cascaded_pand_family(3, 6)

    def run_fused():
        study = Study(tree, StudyOptions(ordering="modular", fuse=True))
        return unreliability(study, MISSION_TIME), study.statistics

    value, fused_stats = benchmark(run_fused)

    start = time.perf_counter()
    unfused = Study(tree, StudyOptions(ordering="modular", fuse=False))
    unfused_value = unreliability(unfused, MISSION_TIME)
    unfused_elapsed = time.perf_counter() - start

    # Isolated composition step on the two largest community members: the
    # fused exploration must beat composing first and reducing afterwards.
    from repro.core import convert
    from repro.ioimc import (
        apply_maximal_progress,
        parallel,
        remove_internal_self_loops,
    )

    models = sorted(convert(tree).models(), key=lambda m: -m.num_states)
    left, right = models[0], models[1]

    fused_model, fused_step = _best_of(lambda: parallel(left, right, fuse=True), 5)
    reduced_model, unfused_step = _best_of(
        lambda: remove_internal_self_loops(
            apply_maximal_progress(parallel(left, right))
        ).restrict_to_reachable(),
        5,
    )

    record(
        benchmark,
        experiment="E12 (fused compose+maximal-progress vs compose-then-reduce)",
        unreliability=value,
        fused_peak_product_states=fused_stats.peak_product_states,
        fused_peak_product_transitions=fused_stats.peak_product_transitions,
        unfused_peak_product_states=unfused.statistics.peak_product_states,
        unfused_peak_product_transitions=unfused.statistics.peak_product_transitions,
        unfused_pipeline_wall_seconds=unfused_elapsed,
        fused_step_wall_seconds=fused_step,
        compose_then_reduce_step_wall_seconds=unfused_step,
    )
    assert value == pytest.approx(unfused_value, abs=1e-9)
    assert fused_stats.peak_product_states <= unfused.statistics.peak_product_states
    assert (
        fused_stats.peak_product_transitions
        <= unfused.statistics.peak_product_transitions
    )
    assert fused_model.num_states == reduced_model.num_states
    # The wall-clock comparison (fused ~1.6-2.3x faster on the development
    # machine) is recorded above rather than asserted: timing assertions flake
    # on loaded CI runners, and the structural assertions already pin that the
    # fused route produces the identical, never-larger model.


@pytest.mark.benchmark(group="scalability-large")
@pytest.mark.parametrize("num_modules,events_per_module", LARGE_SWEEP)
def test_large_configurations_full_pipeline(benchmark, num_modules, events_per_module):
    """Full pipeline on the configurations the signature engine could not reach.

    Also records the wall time of the *peak* weak-minimisation step (the
    largest tau-heavy intermediate product of the instance) — the number the
    ROADMAP's "scale bench_scalability further" item tracks per PR.
    """
    tree = cascaded_pand_family(num_modules, events_per_module)

    def run():
        study = Study(tree, StudyOptions(ordering="modular"))
        return unreliability(study, MISSION_TIME), study.statistics

    value, statistics = benchmark(run)

    workload = largest_minimisation_workload(num_modules, events_per_module)
    start = time.perf_counter()
    minimised = minimize_weak(workload)
    peak_minimisation_seconds = time.perf_counter() - start

    record(
        benchmark,
        experiment="E13 (large configurations, default minimiser)",
        num_modules=num_modules,
        events_per_module=events_per_module,
        basic_events=num_modules * events_per_module,
        unreliability=value,
        peak_product_states=statistics.peak_product_states,
        peak_reduced_states=statistics.peak_reduced_states,
        peak_minimisation_input_states=workload.num_states,
        peak_minimisation_output_states=minimised.num_states,
        peak_weak_minimisation_wall_seconds=peak_minimisation_seconds,
        peak_rss_kb=_peak_rss_kb(),
    )
    assert 0.0 <= value <= 1.0
    assert statistics.peak_product_states < 60 * events_per_module * num_modules


def _minimisation_comparison(benchmark, num_modules, events_per_module, repeats=3):
    workload = largest_minimisation_workload(num_modules, events_per_module)

    def default():
        return minimize_weak(workload)

    minimised = benchmark(default)

    # Same best-of-N policy on both sides: pytest-benchmark reports the min
    # over its rounds for the default engine, so take the min of `repeats`
    # manual runs for the signature reference (one slow outlier must not
    # skew the recorded speedup either way).
    reference, signature_seconds = _best_of(
        lambda: minimize_weak(workload, algorithm="signature"), repeats
    )
    default_seconds = _benchmark_min(benchmark, default, repeats)

    record(
        benchmark,
        experiment="E14 (weak minimisation: default vs signature engine)",
        num_modules=num_modules,
        events_per_module=events_per_module,
        input_states=workload.num_states,
        input_transitions=workload.num_transitions,
        minimised_states=minimised.num_states,
        timing_repeats=repeats,
        default_wall_seconds=default_seconds,
        signature_wall_seconds=signature_seconds,
        speedup=signature_seconds / default_seconds if default_seconds else None,
        peak_rss_kb=_peak_rss_kb(),
    )
    # Both engines must compute the identical quotient; the wall-clock gap is
    # recorded rather than asserted (timing assertions flake on loaded CI).
    assert minimised.to_dot() == reference.to_dot()


@pytest.mark.benchmark(group="scalability-minimisation")
@pytest.mark.parametrize("num_modules,events_per_module", MINIMISATION_SWEEP)
def test_weak_minimisation_default_vs_signature(benchmark, num_modules, events_per_module):
    """The isolated weak-minimisation step, both engines, mid-size tier."""
    _minimisation_comparison(benchmark, num_modules, events_per_module)


@big_tier
@pytest.mark.benchmark(group="scalability-minimisation-big")
@pytest.mark.parametrize("num_modules,events_per_module", BIG_MINIMISATION_SWEEP)
def test_weak_minimisation_biggest_tier(benchmark, num_modules, events_per_module):
    """The previously impractical tier (needs ``RUN_BIG_BENCH=1``)."""
    # The signature reference needs ~a minute per run here; two repeats keep
    # the opt-in tier under a few minutes while still discarding one outlier.
    _minimisation_comparison(benchmark, num_modules, events_per_module, repeats=2)


@big_tier
@pytest.mark.benchmark(group="scalability-minimisation-growth")
@pytest.mark.parametrize("num_states", GROWTH_SWEEP)
def test_strong_minimisation_growth(benchmark, num_states):
    """E15 — grow the chain until the state count is the limit.

    The strong refinement on the singleton-quotient tau chain: each state is
    a distinct distance from the sink, so refinement cannot stop early and
    the cost is a pure function of the state count.  One timed run
    per size (the workload is deterministic and seconds long — calibration
    rounds would only multiply the tier's runtime), with the process's peak
    RSS recorded next to the wall time.
    """
    chain = tau_heavy_chain(num_states)

    def minimise():
        return minimize_strong(chain)

    minimised = benchmark.pedantic(minimise, rounds=1, iterations=1)
    record(
        benchmark,
        experiment="E15 (strong minimisation growth, tau-heavy chain)",
        input_states=chain.num_states,
        input_transitions=chain.num_transitions,
        minimised_states=minimised.num_states,
        wall_seconds=_benchmark_min(benchmark, minimise, 1),
        peak_rss_kb=_peak_rss_kb(),
    )
    # No two chain states are bisimilar: the quotient must be the input.
    assert minimised.num_states == chain.num_states


#: The million-state-tier rung: chain size, wall-clock gate (seconds) and
#: peak-RSS gate (kilobytes) of the 120k growth point below.
GROWTH_GATE_STATES = 120_000
GROWTH_GATE_WALL_SECONDS = 120.0
GROWTH_GATE_RSS_KB = 450_000

_GROWTH_GATE_CHILD = """
import json, resource, sys, time
sys.path.insert(0, {src!r}); sys.path.insert(0, {bench!r})
from workloads import tau_heavy_chain
from repro.ioimc import minimize_strong
chain = tau_heavy_chain({states})
start = time.perf_counter()
minimised = minimize_strong(chain)
wall = time.perf_counter() - start
print(json.dumps({{
    "wall_seconds": wall,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "minimised_states": minimised.num_states,
}}))
"""


@big_tier
@pytest.mark.benchmark(group="scalability-minimisation-growth")
def test_growth_chain_120k_gated(benchmark):
    """The 120k-state growth point, gated: < 120 s wall, < 450 MB peak RSS.

    Runs in a fresh subprocess so the RSS high-water mark belongs to this
    point alone — ``ru_maxrss`` is a process-lifetime peak, and the earlier
    growth points would otherwise leak into (or mask) the gate.
    """
    import json as _json
    import subprocess
    import sys as _sys
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parent
    child = _GROWTH_GATE_CHILD.format(
        src=str(bench_dir.parent / "src"),
        bench=str(bench_dir),
        states=GROWTH_GATE_STATES,
    )

    def run():
        completed = subprocess.run(
            [_sys.executable, "-c", child],
            capture_output=True,
            text=True,
            timeout=GROWTH_GATE_WALL_SECONDS * 3,
        )
        assert completed.returncode == 0, completed.stderr
        return _json.loads(completed.stdout)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        benchmark,
        experiment="E15 (120k growth point, gated)",
        input_states=GROWTH_GATE_STATES,
        minimised_states=outcome["minimised_states"],
        wall_seconds=outcome["wall_seconds"],
        peak_rss_kb=outcome["peak_rss_kb"],
        wall_gate_seconds=GROWTH_GATE_WALL_SECONDS,
        rss_gate_kb=GROWTH_GATE_RSS_KB,
    )
    # No two chain states are bisimilar: the quotient must be the input.
    assert outcome["minimised_states"] == GROWTH_GATE_STATES
    # Measured ~6 s / ~330 MB on the development machine: both gates leave a
    # wide margin for loaded CI runners while still catching a return to the
    # pre-smaller-half scaling (quadratic work would need ~15 minutes here).
    assert outcome["wall_seconds"] < GROWTH_GATE_WALL_SECONDS
    assert outcome["peak_rss_kb"] < GROWTH_GATE_RSS_KB


#: The opt-in CTMDP sweep configuration: (race-bank channels, samples).  Six
#: channels put the aggregated envelope around 1.4k states — big enough that
#: the legacy dense per-sample engine needs seconds per sample.
BIG_CTMDP_SWEEP = (6, 6)


@big_tier
@pytest.mark.benchmark(group="scalability-ctmdp-sweep")
def test_ctmdp_kernel_sweep_big_tier(benchmark):
    """One CTMDP bound-sweep configuration (needs ``RUN_BIG_BENCH=1``).

    The shared-structure ``CtmdpKernel`` sweep vs the legacy per-sample
    reference engine (full ``instantiate`` plus the dense round-robin
    backward sweep, both directions) on a six-channel FDEP/PAND race bank —
    a genuine CTMDP whose vanishing-choice count grows with the channels.
    Bounds must agree to 1e-9 on every row and the kernel must stay >= 10x
    faster (measured ~20x one tier down, and the gap widens with size).
    """
    channels, num_samples = BIG_CTMDP_SWEEP
    tree = with_rate_parameters(pand_race_bank(channels))
    times = (0.25, 0.5, 1.0, 2.0)
    scales = [0.35, 0.7, 1.0, 1.4, 2.0, 2.9][:num_samples]
    samples = [
        {
            name: max(0.05, min(5.0, nominal * scale))
            for name, nominal in tree.parameters.items()
        }
        for scale in scales
    ]
    study = SweepStudy(tree)
    skeleton = study.skeleton  # shared pipeline warmed outside the timing
    sweep = RateSweep(UnreliabilityBounds(times), samples)

    def run_sweep():
        return study.run(sweep)

    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    kernel_seconds = _benchmark_min(benchmark, run_sweep, 1)
    assert result.num_failed == 0

    legacy_start = time.perf_counter()
    legacy_rows = []
    for sample in samples:
        model = skeleton.instantiate(sample)
        legacy_rows.append(
            tuple(
                time_bounded_reachability_curve_reference(
                    model, signals.FAILED_LABEL, times, maximize=maximize
                )
                for maximize in (False, True)
            )
        )
    legacy_seconds = time.perf_counter() - legacy_start

    worst = 0.0
    for row, (low, high) in zip(result.rows, legacy_rows):
        bounds = row["unreliability_bounds"]
        worst = max(
            worst,
            float(np.max(np.abs(np.asarray(bounds.lower) - low))),
            float(np.max(np.abs(np.asarray(bounds.upper) - high))),
        )
    record(
        benchmark,
        experiment="CTMDP kernel sweep vs legacy reference (big tier)",
        channels=channels,
        states=skeleton.num_states,
        num_samples=num_samples,
        kernel_wall_seconds=kernel_seconds,
        legacy_wall_seconds=legacy_seconds,
        speedup=legacy_seconds / kernel_seconds if kernel_seconds else None,
        max_abs_difference=worst,
        peak_rss_kb=_peak_rss_kb(),
    )
    assert worst <= 1e-9
    assert legacy_seconds / kernel_seconds >= 10.0


@pytest.mark.benchmark(group="scalability-comparison")
def test_paper_instance_gap(benchmark):
    """The headline comparison on the paper's own instance (3 x 4)."""
    tree = cascaded_pand_family(3, 4)

    def run():
        peak = Study(tree).statistics.peak_product_states
        monolithic = MonolithicMarkovGenerator(tree).build()
        return peak, monolithic.num_states

    peak, monolithic_states = benchmark(run)
    record(
        benchmark,
        experiment="E9 (state-space gap on the CPS instance)",
        compositional_peak_states=peak,
        monolithic_states=monolithic_states,
        reduction_factor=monolithic_states / peak,
    )
    assert monolithic_states / peak > 20.0
