"""The PR's acceptance check: a 50-sample rate sweep on the CPS beats 50
independent full-pipeline evaluations by a wide margin, with equal results.

The sweep engine runs conversion + aggregation once and, via the
shared-structure kernel, refills one preallocated CSR pattern per sample; the
naive path re-runs the whole pipeline per sample.  Two ratios are pinned:

* sweep vs naive — the end-to-end acceptance number (measured ~30x; the PR 4
  per-sample-instantiation engine managed ~12x, so the floor below also
  catches a regression to that path);
* kernel vs per-sample cost — the shared-structure refill must beat a full
  CTMC instantiation per sample (``tests/sweep_reference.py``) by >= 1.5x.

The same numbers are recorded per PR in BENCH_fig2.json (section ``sweep``)
by ``benchmarks/smoke_fig2.py``, where CI gates the end-to-end ratio at 20x.
"""

import time

import pytest

from repro import RateSweep, SweepStudy, Unreliability, evaluate
from repro.core.sweep import substitute_parameters, with_rate_parameters
from repro.systems import cascaded_pand_system
from tests.sweep_reference import per_sample_rows

NUM_SAMPLES = 50
MISSION_TIME = 1.0
#: The ISSUE's acceptance floor is 20x (gated in the CI smoke benchmark);
#: this in-suite floor keeps margin for CPU steal on shared CI runners while
#: still tripping on a regression to the ~12x PR 4 engine.
REQUIRED_SPEEDUP = 15.0
#: Shared-structure refills vs per-sample CTMC instantiation.
REQUIRED_STRUCTURE_SPEEDUP = 1.5


@pytest.fixture(scope="module")
def parametric_cps():
    events = {f"{module}{i}": "lam" for module in ("A", "C", "D") for i in range(1, 5)}
    return with_rate_parameters(cascaded_pand_system(), events)


@pytest.fixture(scope="module")
def samples():
    return [{"lam": 0.1 + 0.04 * index} for index in range(NUM_SAMPLES)]


def test_cps_sweep_is_20x_faster_and_equal(parametric_cps, samples):
    query = Unreliability([MISSION_TIME])

    start = time.perf_counter()
    result = SweepStudy(parametric_cps).run(RateSweep(query, samples))
    sweep_seconds = time.perf_counter() - start
    assert result.num_failed == 0
    assert len(result.rows) == NUM_SAMPLES

    start = time.perf_counter()
    references = [
        evaluate(substitute_parameters(parametric_cps, sample), query)
        for sample in samples
    ]
    naive_seconds = time.perf_counter() - start

    worst = max(
        abs(row["unreliability"].values[0] - reference["unreliability"].values[0])
        for row, reference in zip(result.rows, references)
    )
    assert worst <= 1e-9

    speedup = naive_seconds / sweep_seconds
    assert speedup >= REQUIRED_SPEEDUP, (
        f"rate sweep is only {speedup:.1f}x faster than {NUM_SAMPLES} naive "
        f"evaluations ({sweep_seconds:.3f}s vs {naive_seconds:.3f}s)"
    )


def test_kernel_beats_per_sample_instantiation(parametric_cps, samples):
    """The shared-structure path must stay >= 1.5x over the PR 4 path."""
    query = Unreliability([MISSION_TIME])
    study = SweepStudy(parametric_cps)
    study.skeleton  # pay the shared pipeline outside both measurements

    def best_of(fn, repeats=3):
        best = None
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return result, best

    kernel_result, kernel_seconds = best_of(
        lambda: study.run(RateSweep(query, samples))
    )
    legacy_rows, legacy_seconds = best_of(
        lambda: per_sample_rows(
            study.skeleton, query, samples, parametric_cps.parameters
        )
    )
    worst = max(
        abs(mine["unreliability"].values[0] - theirs["unreliability"].values[0])
        for mine, theirs in zip(kernel_result.rows, legacy_rows)
    )
    assert worst <= 1e-9

    structure_speedup = legacy_seconds / kernel_seconds
    assert structure_speedup >= REQUIRED_STRUCTURE_SPEEDUP, (
        f"shared-structure kernel is only {structure_speedup:.2f}x faster than "
        f"per-sample instantiation ({kernel_seconds:.3f}s vs {legacy_seconds:.3f}s)"
    )
