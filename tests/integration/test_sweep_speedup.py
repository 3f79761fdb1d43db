"""The rate-sweep engine's acceptance check: a 50-sample rate sweep on the CPS shares one
pipeline run and one kernel structure across its samples, with the same
results as 50 independent full-pipeline evaluations.

The sweep engine runs conversion + aggregation once and, via the
shared-structure kernel, refills one preallocated CSR pattern per sample; the
naive path re-runs the whole pipeline per sample.  The split is pinned by
counts, which do not depend on how busy the host is:

* sweep vs naive — one compositional aggregation and one CSR pattern build
  for the whole sweep, one of each per sample for the naive path;
* kernel vs per-sample instantiation — a Study's kernel is built once and
  kept across sweep runs, and refills it without instantiating a CTMC, while
  the per-sample reference path (``tests/sweep_reference.py``) instantiates
  one CTMC per sample.

The wall-clock ratios behind these counts (sweep >= 20x faster than naive,
the shared-structure refill >= 1.5x faster than per-sample instantiation)
are recorded per PR in BENCH_fig2.json (section ``sweep``) by
``benchmarks/smoke_fig2.py``, where CI gates them.
"""

from collections import Counter

import pytest

from repro import RateSweep, SweepStudy, Unreliability, evaluate
from repro.core.aggregation import CompositionalAggregator
from repro.core.sweep import substitute_parameters, with_rate_parameters
from repro.ctmc.builders import CtmcSkeleton
from repro.ctmc.kernel import CsrBuffer
from repro.systems import cascaded_pand_system
from tests.sweep_reference import per_sample_rows

NUM_SAMPLES = 50
MISSION_TIME = 1.0


@pytest.fixture(scope="module")
def parametric_cps():
    events = {f"{module}{i}": "lam" for module in ("A", "C", "D") for i in range(1, 5)}
    return with_rate_parameters(cascaded_pand_system(), events)


@pytest.fixture(scope="module")
def samples():
    return [{"lam": 0.1 + 0.04 * index} for index in range(NUM_SAMPLES)]


@pytest.fixture
def builds(monkeypatch):
    """Counts of compositional aggregations (``pipelines``), kernel CSR
    pattern builds (``structures``) and concrete CTMC instantiations
    (``instantiations``) while the test runs."""
    tally = Counter()

    def count(cls, method: str, key: str) -> None:
        original = getattr(cls, method)

        def counted(*args, **kwargs):
            tally[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, method, counted)

    count(CompositionalAggregator, "run", "pipelines")
    count(CsrBuffer, "__init__", "structures")
    count(CtmcSkeleton, "instantiate", "instantiations")
    return tally


def worst_difference(rows, references) -> float:
    return max(
        abs(row["unreliability"].values[0] - reference["unreliability"].values[0])
        for row, reference in zip(rows, references)
    )


def test_cps_sweep_builds_once_and_equals_naive(parametric_cps, samples, builds):
    query = Unreliability([MISSION_TIME])

    result = SweepStudy(parametric_cps).run(RateSweep(query, samples))
    assert result.num_failed == 0
    assert len(result.rows) == NUM_SAMPLES
    assert builds == {"pipelines": 1, "structures": 1}

    builds.clear()
    references = [
        evaluate(substitute_parameters(parametric_cps, sample), query)
        for sample in samples
    ]
    assert builds == {"pipelines": NUM_SAMPLES, "structures": NUM_SAMPLES}

    assert worst_difference(result.rows, references) <= 1e-9


def test_kernel_structure_is_shared_across_runs(parametric_cps, samples, builds):
    """One CSR pattern serves every sample of every run of one Study; the
    per-sample reference path instantiates one CTMC per sample."""
    query = Unreliability([MISSION_TIME])
    study = SweepStudy(parametric_cps)
    study.skeleton  # the shared pipeline, outside the kernel counts
    assert builds["pipelines"] == 1

    first = study.run(RateSweep(query, samples))
    second = study.run(RateSweep(query, samples))
    assert builds == {"pipelines": 1, "structures": 1}
    assert [row.measures for row in first.rows] == [row.measures for row in second.rows]

    legacy_rows = per_sample_rows(study.skeleton, query, samples, parametric_cps.parameters)
    assert builds == {"pipelines": 1, "structures": 1, "instantiations": NUM_SAMPLES}

    assert worst_difference(first.rows, legacy_rows) <= 1e-9
